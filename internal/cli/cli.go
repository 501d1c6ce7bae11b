// Package cli is the command-line harness the cmd/ tools share. It
// registers the flags several commands take, each with one name, one help
// string and one meaning; validates them before any workload is generated
// or profiled; loads the technology catalog and design registry they
// select; runs the profiler and the -runlog sink around one
// run_start/run_end pair; and gives every command one exit path.
package cli

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/obs"
	"hybridmem/internal/report"
	"hybridmem/internal/tech"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

// Flag selects shared flags for New to register.
type Flag uint

// The shared flags. -workload and -design take a per-command default and
// register through AddWorkload and AddDesign instead.
const (
	Scale         Flag = 1 << iota // -scale
	WorkloadScale                  // -workload-scale
	Workloads                      // -workloads
	Catalog                        // -catalog
	Workers                        // -workers
	Iters                          // -iters
	Dilution                       // -dilution
	Epoch                          // -epoch and -timeseries
	RunLog                         // -runlog
	Profile                        // -cpuprofile, -memprofile and -trace
	LLC                            // -llc
	NVM                            // -nvm
	Config                         // -config
)

// Cmd is one command invocation: the shared flag values, the catalog and
// registry they select, and, between Start and Finish, the run log.
type Cmd struct {
	// Name prefixes error messages and is the run log's cmd field.
	Name string

	Scale         uint64
	WorkloadScale uint64
	Workload      string
	Workloads     []string // nil selects the whole Table 4 suite
	Workers       int
	Iters         int
	Dilution      int
	Epoch         uint64
	TimeSeries    string
	// Design is the design family Backend builds; Config is its Table 2/3
	// row (empty = EH1 for 4lc/4lcnvm, N6 for nmm).
	Design, Config string

	// Set by Validate: the -catalog catalog (builtin without the flag), its
	// registry, and the class-checked -llc and -nvm technologies.
	Cat      *tech.Catalog
	Reg      *design.Registry
	LLC, NVM tech.Tech

	// Set by Start: the run log (nil without -runlog) and the run's trace
	// and stage context (context.Background before Start).
	Log *obs.Logger
	Ctx context.Context

	fs                 *flag.FlagSet
	workloads          string
	catalog, llc, nvm  string
	runlog             string
	prof               obs.Profile
	start              time.Time
	stopProf, closeLog func() error
}

// New registers the selected shared flags on the process command line.
func New(name string, flags Flag) *Cmd { return newCmd(name, flag.CommandLine, flags) }

func newCmd(name string, fs *flag.FlagSet, flags Flag) *Cmd {
	c := &Cmd{Name: name, fs: fs, Ctx: context.Background()}
	if flags&Scale != 0 {
		fs.Uint64Var(&c.Scale, "scale", design.DefaultScale, "capacity co-scaling divisor (power of two, 1-64)")
	}
	if flags&WorkloadScale != 0 {
		fs.Uint64Var(&c.WorkloadScale, "workload-scale", 0, "workload footprint divisor, a power of two (0 = -scale)")
	}
	if flags&Workloads != 0 {
		fs.StringVar(&c.workloads, "workloads", "", "comma-separated workload subset (empty = the whole Table 4 suite)")
	}
	if flags&Catalog != 0 {
		fs.StringVar(&c.catalog, "catalog", "", "technology catalog file (hybridmem-catalog/1 JSON; empty = builtin Table 1; see FORMATS.md)")
	}
	if flags&Workers != 0 {
		fs.IntVar(&c.Workers, "workers", 0, "replay worker bound; design points of one workload within the bound share each block decode (0 = GOMAXPROCS)")
	}
	if flags&Iters != 0 {
		fs.IntVar(&c.Iters, "iters", 0, "workload iteration override (0 = defaults)")
	}
	if flags&Dilution != 0 {
		fs.IntVar(&c.Dilution, "dilution", 0, "L1-hit dilution factor (0 = default, -1 = none)")
	}
	if flags&Epoch != 0 {
		fs.Uint64Var(&c.Epoch, "epoch", 0, "sample an epoch time-series every N references (0 = off)")
		fs.StringVar(&c.TimeSeries, "timeseries", "", `write the epoch time-series CSV here ("-" = stderr, since stdout carries the command's output; implies -epoch)`)
	}
	if flags&RunLog != 0 {
		fs.StringVar(&c.runlog, "runlog", "", `write structured JSONL run events here ("-" = stderr)`)
	}
	if flags&Profile != 0 {
		c.prof.RegisterFlags(fs)
	}
	if flags&LLC != 0 {
		fs.StringVar(&c.llc, "llc", "eDRAM", "fourth-level cache technology (eDRAM, HMC, or any catalog llc entry)")
	}
	if flags&NVM != 0 {
		fs.StringVar(&c.nvm, "nvm", "PCM", "NVM technology (PCM, STTRAM, FeRAM, or any catalog nvm entry)")
	}
	if flags&Config != 0 {
		fs.StringVar(&c.Config, "config", "", "Table 2/3 configuration: EH1-EH8 for 4lc/4lcnvm, N1-N9 for nmm (empty = EH1 or N6)")
	}
	return c
}

// AddWorkload registers -workload with the command's default workload.
func (c *Cmd) AddWorkload(def string) {
	c.fs.StringVar(&c.Workload, "workload", def, "workload name (one of "+strings.Join(catalog.ExtendedNames, ", ")+")")
}

// AddDesign registers -design with the command's default design family.
func (c *Cmd) AddDesign(def string) {
	c.fs.StringVar(&c.Design, "design", def, "design: reference, 4lc, nmm, 4lcnvm")
}

// Parse parses the command line and validates it, exiting on an error.
func (c *Cmd) Parse() {
	c.fs.Parse(os.Args[1:])
	c.Exit(c.Validate())
}

// Validate checks the parsed flags before any workload is generated or
// profiled, then resolves what they name: the catalog and registry, the
// -llc/-nvm technologies (class-checked, failing with *design.ClassError)
// and the -design/-config design point. -timeseries without -epoch turns
// sampling on at obs.DefaultEpochRefs, and -workers 0 means GOMAXPROCS.
func (c *Cmd) Validate() error {
	if c.fs.Lookup("scale") != nil {
		if err := design.ValidateScale(c.Scale); err != nil {
			return err
		}
	}
	if ws := c.WorkloadScale; ws&(ws-1) != 0 {
		return fmt.Errorf("workload scale %d must be a power of two", ws)
	}
	if c.Workload != "" {
		if err := checkWorkload(c.Workload); err != nil {
			return err
		}
	}
	var err error
	if c.Workloads, err = parseWorkloads(c.workloads); err != nil {
		return err
	}
	if c.TimeSeries != "" && c.Epoch == 0 {
		c.Epoch = obs.DefaultEpochRefs
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Cat, err = tech.LoadCatalogOrBuiltin(c.catalog); err != nil {
		return err
	}
	if c.Reg, err = design.NewRegistry(c.Cat); err != nil {
		return err
	}
	if c.llc != "" {
		if c.LLC, err = c.Reg.TechOfClass(c.llc, tech.ClassLLC); err != nil {
			return err
		}
	}
	if c.nvm != "" {
		if c.NVM, err = c.Reg.TechOfClass(c.nvm, tech.ClassNVM); err != nil {
			return err
		}
	}
	if c.Design != "" {
		_, err = c.Backend(0)
	}
	return err
}

// parseWorkloads parses a -workloads list. An empty list selects the whole
// Table 4 suite (nil); duplicates and names catalog.New rejects are errors.
func parseWorkloads(list string) ([]string, error) {
	var seen []string
	return ParseList("workloads", list, func(name string) (string, error) {
		if slices.Contains(seen, name) {
			return "", errors.New("listed twice")
		}
		seen = append(seen, name)
		return name, checkWorkload(name)
	})
}

// ParseList parses the comma-separated value of flag name with surrounding
// spaces trimmed from each item; parse converts and checks each item. An
// empty value is an empty list; an empty item is an error.
func ParseList[T any](name, list string, parse func(string) (T, error)) ([]T, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var out []T
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			return nil, fmt.Errorf("-%s %q has an empty item", name, list)
		}
		v, err := parse(item)
		if err != nil {
			return nil, fmt.Errorf("-%s item %q: %w", name, item, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// checkWorkload rejects a name catalog.New would reject, listing the known
// names.
func checkWorkload(name string) error {
	if !slices.Contains(catalog.ExtendedNames, name) {
		return fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(catalog.ExtendedNames, ", "))
	}
	return nil
}

// Backend builds the -design/-config/-llc/-nvm design point through the
// registry for a workload of the given footprint: -design names a family in
// lower case, -config defaults to N6 for nmm and EH1 otherwise, and -llc
// and -nvm apply to the families that take them.
func (c *Cmd) Backend(footprint uint64) (design.Backend, error) {
	s := design.Spec{Family: c.Design}
	for _, f := range design.GridFamilies {
		if c.Design == strings.ToLower(f.Name) {
			s = design.Spec{Family: f.Name, Config: cmp.Or(c.Config, "EH1")}
			if f.Name == design.FamilyNMM {
				s.Config = cmp.Or(c.Config, "N6")
			}
			if f.LLC {
				s.LLC = c.llc
			}
			if f.NVM {
				s.NVM = c.nvm
			}
		}
	}
	if s.Family == c.Design && s.Family != design.FamilyReference {
		return design.Backend{}, fmt.Errorf("unknown design %q (reference, 4lc, nmm, 4lcnvm)", c.Design)
	}
	if err := c.Reg.Resolve(&s); err != nil {
		return design.Backend{}, err
	}
	return c.Reg.Backend(s, c.Scale, footprint)
}

// NewWorkload builds the named workload at -workload-scale (or -scale when
// that is zero) with -iters.
func (c *Cmd) NewWorkload(name string) (workload.Workload, error) {
	scale := c.WorkloadScale
	if scale == 0 {
		scale = c.Scale
	}
	return catalog.New(name, workload.Options{Scale: scale, Iters: c.Iters})
}

// ProfileWorkload builds -workload and profiles it at -scale against the
// catalog with -dilution (0 = default, as everywhere; commands without the
// flag get the default), timing the "profile" stage.
func (c *Cmd) ProfileWorkload() (workload.Workload, *exp.WorkloadProfile, error) {
	w, err := c.NewWorkload(c.Workload)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: profiling %s (footprint %.1f MB)...\n", c.Name, w.Name(), float64(w.Footprint())/(1<<20))
	defer obs.TimeStage(c.Ctx, "profile")()
	wp, err := exp.ProfileWorkloadOpts(c.Ctx, w, exp.ProfileOptions{
		Scale: c.Scale, Dilution: c.Dilution, Log: c.Log, Catalog: c.Cat,
	})
	return w, wp, err
}

// ExpConfig is the experiment configuration the flags select.
func (c *Cmd) ExpConfig() exp.Config {
	return exp.Config{
		Ctx: c.Ctx, Scale: c.Scale, WorkloadScale: c.WorkloadScale, Iters: c.Iters,
		Workers: c.Workers, Workloads: c.Workloads, Dilution: c.Dilution,
		Epoch: c.Epoch, Log: c.Log, Catalog: c.Cat,
	}
}

// Start starts the profiler, opens the -runlog sink and the run's trace
// context, and logs run_start with cmd and every flag's value.
func (c *Cmd) Start() error {
	stop, err := c.prof.Start()
	if err != nil {
		return err
	}
	w, closeLog, err := obs.OpenSink(c.runlog, os.Stderr)
	if err != nil {
		stop()
		return err
	}
	c.stopProf, c.closeLog = stop, closeLog
	c.Log = obs.NewLogger(w)
	c.Ctx, _, _ = obs.NewRunContext(context.Background())
	c.start = time.Now()
	fields := obs.Fields{"cmd": c.Name}
	c.fs.VisitAll(func(f *flag.Flag) {
		if g, ok := f.Value.(flag.Getter); ok {
			fields[strings.ReplaceAll(f.Name, "-", "_")] = g.Get()
		}
	})
	c.Log.EventCtx(c.Ctx, "run_start", fields)
	return nil
}

// Finish logs run_end with cmd, wall_ms, refs_processed, the stage
// breakdown and fields, then stops the profiler and closes the run log.
func (c *Cmd) Finish(fields obs.Fields) {
	end := obs.Fields{
		"cmd":            c.Name,
		"wall_ms":        float64(time.Since(c.start)) / float64(time.Millisecond),
		"refs_processed": obs.RefsProcessed(),
	}
	for k, v := range obs.StagesFrom(c.Ctx).Fields() {
		end[k] = v
	}
	for k, v := range fields {
		end[k] = v
	}
	c.Log.EventCtx(c.Ctx, "run_end", end)
	if err := c.stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
	}
	if err := c.closeLog(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
	}
}

// EmitTimeSeries has write render the epoch time-series CSV to the
// -timeseries destination; without -timeseries it does nothing. "-" means
// stderr in every command, because stdout carries the command's output.
func (c *Cmd) EmitTimeSeries(write func(io.Writer) error) error {
	w, closeTS, err := obs.OpenSink(c.TimeSeries, os.Stderr)
	if err != nil || w == nil {
		return err
	}
	if err := write(w); err != nil {
		closeTS()
		return err
	}
	return closeTS()
}

// SuiteSeries renders every profiled workload's epoch series as one
// long-form CSV (one row per workload, epoch and level).
func SuiteSeries(s *exp.Suite) func(io.Writer) error {
	return func(w io.Writer) error {
		for i, wp := range s.Profiles {
			if wp.Series == nil {
				continue
			}
			if err := report.WriteEpochLongCSV(w, wp.Name, wp.Series, i == 0); err != nil {
				return err
			}
		}
		return nil
	}
}

// Exit reports a non-nil err as "<cmd>: <err>" on stderr and exits with
// status 1.
func (c *Cmd) Exit(err error) { Exit(c.Name, err) }

// Exit reports a non-nil err as "name: err" on stderr and exits with
// status 1. It is the exit path of every command.
func Exit(name string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}
