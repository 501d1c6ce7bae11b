package tech

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// CatalogFormat is the schema identifier a catalog file must declare in its
// "format" field. The suffix is the schema version: parsers accept exactly
// the versions they understand, so an incompatible future schema fails
// loudly instead of half-loading. FORMATS.md documents the schema
// normatively.
const CatalogFormat = "hybridmem-catalog/1"

// Entry classes. Every catalog entry declares the role its technology can
// play in a hierarchy; design-space validation (which technologies are legal
// on the NVM axis, the LLC axis, the SRAM prefix) keys off the class rather
// than hardcoded name lists.
const (
	// ClassSRAM marks on-chip SRAM cache technologies (the L1/L2/L3 prefix).
	ClassSRAM = "sram"
	// ClassDRAM marks commodity DRAM main-memory technologies.
	ClassDRAM = "dram"
	// ClassLLC marks fourth-level-cache technologies (eDRAM, HMC).
	ClassLLC = "llc"
	// ClassNVM marks non-volatile main-memory candidates.
	ClassNVM = "nvm"
)

// validClasses is the closed set of entry classes.
var validClasses = map[string]bool{ClassSRAM: true, ClassDRAM: true, ClassLLC: true, ClassNVM: true}

// Entry is one catalog row: a validated technology plus the metadata the
// design space needs to place it (class), resolve it (aliases), and audit it
// (source, extension flag).
type Entry struct {
	// Tech is the device characterization.
	Tech Tech
	// Class is one of the Class* constants.
	Class string
	// Aliases are additional case-insensitive lookup names.
	Aliases []string
	// Source documents where the numbers came from (paper table, report,
	// measurement).
	Source string
	// Extension marks entries beyond the paper's Table 1 set. Extension
	// entries resolve by name everywhere but are excluded from the
	// paper-reproduction default sweeps (NVMs, LLCs), which must stay
	// byte-identical to the 2014 evaluation.
	Extension bool
}

// entryJSON is the wire form of an Entry (see FORMATS.md, "Catalog files").
type entryJSON struct {
	Name          string   `json:"name"`
	Class         string   `json:"class"`
	Aliases       []string `json:"aliases,omitempty"`
	ReadNS        float64  `json:"read_ns"`
	WriteNS       float64  `json:"write_ns"`
	ReadPJPerBit  float64  `json:"read_pj_per_bit"`
	WritePJPerBit float64  `json:"write_pj_per_bit"`
	StaticWPerGB  float64  `json:"static_w_per_gb,omitempty"`
	StaticWFixed  float64  `json:"static_w_fixed,omitempty"`
	NonVolatile   bool     `json:"non_volatile,omitempty"`
	Extension     bool     `json:"extension,omitempty"`
	Source        string   `json:"source,omitempty"`
}

// catalogJSON is the wire form of a catalog file.
type catalogJSON struct {
	Format  string      `json:"format"`
	Name    string      `json:"name"`
	Version string      `json:"version"`
	Techs   []entryJSON `json:"techs"`
}

// Catalog is a validated, versioned set of technology characterizations.
// Catalogs are immutable after construction; derive modified ones with
// WithEntries. The zero value is not useful; use Builtin, ParseCatalog,
// LoadCatalog, or NewCatalog.
type Catalog struct {
	name    string
	version string
	entries []Entry
	byName  map[string]Entry
	hash    string
}

// builtinJSON is the embedded default catalog: the paper's Table 1 rows,
// the reference system's SRAM caches, and post-2014 extension entries.
//
//go:embed builtin.json
var builtinJSON []byte

var (
	builtinOnce sync.Once
	builtin     *Catalog
)

// Builtin returns the embedded default catalog. The first call parses and
// validates the embedded bytes; a defect there is a build error, so it
// panics (make catalogcheck and the package tests guard it).
func Builtin() *Catalog {
	builtinOnce.Do(func() {
		c, err := ParseCatalog(builtinJSON)
		if err != nil {
			panic("tech: embedded builtin catalog invalid: " + err.Error())
		}
		builtin = c
	})
	return builtin
}

// BuiltinJSON returns a copy of the embedded catalog file, for tooling that
// wants to write it out as a user-editable starting point.
func BuiltinJSON() []byte { return append([]byte(nil), builtinJSON...) }

// ParseCatalog parses and validates a catalog file. Every defect — wrong
// format line, missing name/version, duplicate or colliding names, unknown
// classes, and non-finite/negative/zero-latency parameter values — returns
// a typed *CatalogError (wrapping a *ValueError for value defects).
func ParseCatalog(b []byte) (*Catalog, error) {
	var raw catalogJSON
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return nil, &CatalogError{Reason: "invalid JSON", Err: err}
	}
	if raw.Format != CatalogFormat {
		return nil, &CatalogError{Reason: fmt.Sprintf("format %q, want %q", raw.Format, CatalogFormat)}
	}
	if raw.Name == "" {
		return nil, &CatalogError{Reason: "missing catalog name"}
	}
	if raw.Version == "" {
		return nil, &CatalogError{Reason: "missing catalog version"}
	}
	entries := make([]Entry, len(raw.Techs))
	for i, e := range raw.Techs {
		entries[i] = Entry{
			Tech: Tech{
				Name: e.Name, ReadNS: e.ReadNS, WriteNS: e.WriteNS,
				ReadPJPerBit: e.ReadPJPerBit, WritePJPerBit: e.WritePJPerBit,
				StaticWPerGB: e.StaticWPerGB, StaticWFixed: e.StaticWFixed,
				NonVolatile: e.NonVolatile,
			},
			Class: e.Class, Aliases: e.Aliases, Source: e.Source, Extension: e.Extension,
		}
	}
	return NewCatalog(raw.Name, raw.Version, entries)
}

// LoadCatalog reads and parses a catalog file from disk.
func LoadCatalog(path string) (*Catalog, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tech: catalog: %w", err)
	}
	c, err := ParseCatalog(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// LoadCatalogOrBuiltin resolves a CLI -catalog flag: an empty path selects
// the embedded builtin catalog, anything else loads from disk.
func LoadCatalogOrBuiltin(path string) (*Catalog, error) {
	if path == "" {
		return Builtin(), nil
	}
	return LoadCatalog(path)
}

// NewCatalog validates the entries and assembles a catalog. The entry order
// is preserved (it is presentation order for Table 1 style listings) and
// participates in the content hash.
func NewCatalog(name, version string, entries []Entry) (*Catalog, error) {
	if len(entries) == 0 {
		return nil, &CatalogError{Reason: "no technologies"}
	}
	c := &Catalog{
		name:    name,
		version: version,
		entries: append([]Entry(nil), entries...),
		byName:  make(map[string]Entry, len(entries)*2),
	}
	for _, e := range c.entries {
		if err := e.Tech.Validate(); err != nil {
			return nil, &CatalogError{Entry: e.Tech.Name, Err: err}
		}
		if !validClasses[e.Class] {
			return nil, &CatalogError{Entry: e.Tech.Name,
				Reason: fmt.Sprintf("unknown class %q (want sram, dram, llc, or nvm)", e.Class)}
		}
		for _, n := range append([]string{e.Tech.Name}, e.Aliases...) {
			key := strings.ToLower(n)
			if prev, dup := c.byName[key]; dup {
				return nil, &CatalogError{Entry: e.Tech.Name,
					Reason: fmt.Sprintf("name %q collides with entry %s", n, prev.Tech.Name)}
			}
			c.byName[key] = e
		}
	}
	c.hash = hashEntries(name, version, c.entries)
	return c, nil
}

// hashEntries computes the catalog content hash: SHA-256 over a
// deterministic serialization of the identity and every entry field, so any
// edit — a latency, an alias, a class, even a source note — yields a new
// hash. The serve layer folds this hash into its result-cache, profile, and
// persistent-store keys; that is what makes a parameter edit a guaranteed
// cache miss.
func hashEntries(name, version string, entries []Entry) string {
	h := sha256.New()
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(h, "catalog\x00%s\x00%s\x00", name, version)
	for _, e := range entries {
		fmt.Fprintf(h, "entry\x00%s\x00%s\x00%s\x00%s\x00%s\x00%s\x00%s\x00%s\x00%t\x00%t\x00%s\x00%s\x00",
			e.Tech.Name, e.Class,
			g(e.Tech.ReadNS), g(e.Tech.WriteNS),
			g(e.Tech.ReadPJPerBit), g(e.Tech.WritePJPerBit),
			g(e.Tech.StaticWPerGB), g(e.Tech.StaticWFixed),
			e.Tech.NonVolatile, e.Extension,
			strings.Join(e.Aliases, ","), e.Source)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Name returns the catalog's declared name.
func (c *Catalog) Name() string { return c.name }

// Version returns the catalog's declared content version string.
func (c *Catalog) Version() string { return c.version }

// Hash returns the catalog's SHA-256 content hash (hex). Two catalogs hash
// equal exactly when every entry field, the name, and the version match.
func (c *Catalog) Hash() string { return c.hash }

// Len returns the number of entries.
func (c *Catalog) Len() int { return len(c.entries) }

// Entries returns the catalog rows in file order (a copy).
func (c *Catalog) Entries() []Entry { return append([]Entry(nil), c.entries...) }

// Entry looks an entry up by case-insensitive name or alias.
func (c *Catalog) Entry(name string) (Entry, bool) {
	e, ok := c.byName[strings.ToLower(name)]
	return e, ok
}

// Tech resolves a technology by case-insensitive name or alias. Unknown
// names return a *UnknownError carrying the catalog's canonical names.
func (c *Catalog) Tech(name string) (Tech, error) {
	e, ok := c.Entry(name)
	if !ok {
		return Tech{}, &UnknownError{Name: name, Known: c.TechNames()}
	}
	return e.Tech, nil
}

// MustTech resolves a technology that the caller knows is present (e.g. the
// builtin catalog's DRAM). It panics on unknown names.
func (c *Catalog) MustTech(name string) Tech {
	t, err := c.Tech(name)
	if err != nil {
		panic(err)
	}
	return t
}

// TechNames returns the canonical entry names, sorted.
func (c *Catalog) TechNames() []string {
	out := make([]string, len(c.entries))
	for i, e := range c.entries {
		out[i] = e.Tech.Name
	}
	sort.Strings(out)
	return out
}

// Class returns every technology of the given class in file order,
// including extension entries.
func (c *Catalog) Class(class string) []Tech {
	var out []Tech
	for _, e := range c.entries {
		if e.Class == class {
			out = append(out, e.Tech)
		}
	}
	return out
}

// NVMs returns the non-extension NVM candidates — for the builtin catalog,
// the paper's PCM/STT-RAM/FeRAM trio. Extension NVMs resolve by name (and
// appear in Class(ClassNVM)) but stay out of the paper-reproduction default
// sweeps.
func (c *Catalog) NVMs() []Tech { return c.classDefaults(ClassNVM) }

// LLCs returns the non-extension fourth-level-cache technologies — for the
// builtin catalog, eDRAM and HMC.
func (c *Catalog) LLCs() []Tech { return c.classDefaults(ClassLLC) }

// classDefaults returns the non-extension members of a class in file order.
func (c *Catalog) classDefaults(class string) []Tech {
	var out []Tech
	for _, e := range c.entries {
		if e.Class == class && !e.Extension {
			out = append(out, e.Tech)
		}
	}
	return out
}

// Extensions returns the extension entries in file order.
func (c *Catalog) Extensions() []Entry {
	var out []Entry
	for _, e := range c.entries {
		if e.Extension {
			out = append(out, e)
		}
	}
	return out
}

// WithEntries derives a catalog with the given entries replacing same-named
// entries or appending new ones; the result re-validates and re-hashes. The
// receiver is unchanged. The derived catalog's version gains a "+overrides"
// suffix so responses and logs show it is no longer the pristine file.
func (c *Catalog) WithEntries(entries ...Entry) (*Catalog, error) {
	if len(entries) == 0 {
		return c, nil
	}
	merged := append([]Entry(nil), c.entries...)
	for _, e := range entries {
		replaced := false
		for i := range merged {
			if strings.EqualFold(merged[i].Tech.Name, e.Tech.Name) {
				merged[i] = e
				replaced = true
				break
			}
		}
		if !replaced {
			merged = append(merged, e)
		}
	}
	version := c.version
	if !strings.HasSuffix(version, "+overrides") {
		version += "+overrides"
	}
	return NewCatalog(c.name, version, merged)
}
