package design

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"hybridmem/internal/trace"
)

// gridSpecs enumerates the paper's 91-point Table 2/3 grid as unresolved
// specs, technologies in lower case to exercise canonicalization.
func gridSpecs() []Spec {
	llcs, nvms := []string{"edram", "hmc"}, []string{"pcm", "sttram", "feram"}
	var out []Spec
	for _, f := range GridFamilies {
		for _, cfg := range f.Configs {
			ls, ns := []string{""}, []string{""}
			if f.LLC {
				ls = llcs
			}
			if f.NVM {
				ns = nvms
			}
			for _, l := range ls {
				for _, n := range ns {
					out = append(out, Spec{Family: f.Name, Config: cfg, LLC: l, NVM: n})
				}
			}
		}
	}
	return out
}

// TestGridThroughSpec: every grid point, resolved and built through the
// spec, is the back end the name-taking constructors build.
func TestGridThroughSpec(t *testing.T) {
	const scale, footprint = 16, 1 << 26
	r := DefaultRegistry()
	specs := gridSpecs()
	if len(specs) != 91 {
		t.Fatalf("%d grid points, want 91", len(specs))
	}
	for _, s := range specs {
		in := s
		if err := r.Resolve(&s); err != nil {
			t.Fatalf("Resolve(%+v): %v", in, err)
		}
		got, err := r.Backend(s, scale, footprint)
		if err != nil {
			t.Fatalf("Backend(%+v): %v", s, err)
		}
		var want Backend
		switch s.Family {
		case Family4LC:
			want, err = r.FourLC(in.Config, in.LLC, scale, footprint)
		case FamilyNMM:
			want, err = r.NMM(in.Config, in.NVM, scale, footprint)
		default:
			want, err = r.FourLCNVM(in.Config, in.LLC, in.NVM, scale, footprint)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: spec builds %+v, constructor %+v", s.Label(), got, want)
		}
		if got.Name != s.Label() {
			t.Errorf("back end %s labelled %s", got.Name, s.Label())
		}
	}
}

// TestResolveDefaults: omitted technologies resolve to the paper's
// defaults and a custom design gets its default name, while build-time
// defaults (associativity, terminal capacity) stay unset in the spec.
func TestResolveDefaults(t *testing.T) {
	r := DefaultRegistry()
	s := Spec{Family: Family4LCNVM, Config: "EH2"}
	if err := r.Resolve(&s); err != nil || s.LLC != "eDRAM" || s.NVM != "PCM" {
		t.Fatalf("4LCNVM defaults: %+v, %v", s, err)
	}
	c := Spec{Family: FamilyCustom, Custom: &Custom{
		Caches: []CustomLevel{{Tech: "edram", SizeBytes: 1 << 20, LineBytes: 4096}},
		Memory: CustomMemory{Tech: "ram"},
	}}
	if err := r.Resolve(&c); err != nil {
		t.Fatal(err)
	}
	if c.Custom.Name != "custom" || c.Custom.Caches[0].Tech != "eDRAM" || c.Custom.Caches[0].Assoc != 0 || c.Custom.Memory.Tech != "DRAM" {
		t.Fatalf("custom resolved to %+v", *c.Custom)
	}
	b, err := r.Backend(c, 32, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	if l := b.Caches[0]; b.Name != "custom/custom" || l.Name != "L4" || l.Assoc != 16 || b.Memory.Capacity != 1<<26 {
		t.Fatalf("custom back end %+v", b)
	}
}

// TestResolveRefusals pins each refusal's API field and kind, including
// the design cases the serving layer's validation tests send.
func TestResolveRefusals(t *testing.T) {
	custom := func(caches ...CustomLevel) Spec {
		return Spec{Family: FamilyCustom, Custom: &Custom{Caches: caches, Memory: CustomMemory{Tech: "PCM"}}}
	}
	edram := func(size, line uint64, assoc int) CustomLevel {
		return CustomLevel{Tech: "eDRAM", SizeBytes: size, LineBytes: line, Assoc: assoc}
	}
	for _, tc := range []struct {
		name  string
		spec  Spec
		field string
		kind  SpecErrorKind
	}{
		{"no family", Spec{}, "design.family", SpecInvalid},
		{"unknown family", Spec{Family: "5LC", Config: "EH4"}, "design.family", SpecUnknownDesign},
		{"unknown config", Spec{Family: Family4LC, Config: "EH99"}, "design.config", SpecUnknownDesign},
		{"config of another table", Spec{Family: FamilyNMM, Config: "EH1"}, "design.config", SpecUnknownDesign},
		{"unknown nvm", Spec{Family: FamilyNMM, Config: "N6", NVM: "XPoint"}, "design.nvm", SpecUnknownTech},
		{"wrong class on nvm axis", Spec{Family: FamilyNMM, Config: "N6", NVM: "eDRAM"}, "design.nvm", SpecUnknownTech},
		{"wrong class on llc axis", Spec{Family: Family4LC, Config: "EH4", LLC: "PCM"}, "design.llc", SpecUnknownTech},
		{"llc on NMM", Spec{Family: FamilyNMM, Config: "N6", LLC: "HMC"}, "design.llc", SpecInvalid},
		{"nvm on 4LC", Spec{Family: Family4LC, Config: "EH4", NVM: "PCM"}, "design.nvm", SpecInvalid},
		{"custom on a grid family", Spec{Family: FamilyNMM, Config: "N6", Custom: &Custom{}}, "design.custom", SpecInvalid},
		{"reference with args", Spec{Family: FamilyReference, Config: "EH1"}, "design", SpecInvalid},
		{"custom without spec", Spec{Family: FamilyCustom}, "design.custom", SpecInvalid},
		{"custom with config", Spec{Family: FamilyCustom, Config: "EH1", Custom: &Custom{}}, "design", SpecInvalid},
		{"custom bad memory tech", Spec{Family: FamilyCustom, Custom: &Custom{Memory: CustomMemory{Tech: "flux"}}},
			"design.custom.memory.tech", SpecUnknownTech},
		{"custom bad cache tech", custom(CustomLevel{Tech: "flux", SizeBytes: 65536, LineBytes: 4096}),
			"design.custom.caches[0].tech", SpecUnknownTech},
		{"zero size", custom(edram(0, 4096, 0)), "design.custom.caches[0]", SpecInvalid},
		{"negative assoc", custom(edram(65536, 4096, -1)), "design.custom.caches[0]", SpecInvalid},
		{"set count 3", custom(edram(196608, 4096, 0)), "design.custom.caches[0]", SpecInvalid},
		{"assoc 3", custom(edram(65536, 4096, 3)), "design.custom.caches[0]", SpecInvalid},
		{"line 96", custom(edram(98304, 96, 0)), "design.custom.caches[0]", SpecInvalid},
		{"shrinking line", custom(edram(65536, 4096, 0), edram(1<<20, 512, 0)), "design.custom.caches[1].line_bytes", SpecInvalid},
	} {
		err := DefaultRegistry().Resolve(&tc.spec)
		var se *SpecError
		if !errors.As(err, &se) || se.Field != tc.field || se.Kind != tc.kind {
			t.Errorf("%s: Resolve = %#v, want kind %d on %s", tc.name, err, tc.kind, tc.field)
		}
	}
}

// TestSpecPaths: a path names the same spec as the object form; a path of
// the wrong shape fails to decode.
func TestSpecPaths(t *testing.T) {
	for path, want := range map[string]Spec{
		"reference":            {Family: FamilyReference},
		"4LC/EH4":              {Family: Family4LC, Config: "EH4"},
		"NMM/N6/STTRAM":        {Family: FamilyNMM, Config: "N6", NVM: "STTRAM"},
		"4LCNVM/EH4/HMC":       {Family: Family4LCNVM, Config: "EH4", LLC: "HMC"},
		"4LCNVM/EH4/HMC/FeRAM": {Family: Family4LCNVM, Config: "EH4", LLC: "HMC", NVM: "FeRAM"},
	} {
		var got Spec
		if err := json.Unmarshal([]byte(`"`+path+`"`), &got); err != nil || got != want {
			t.Errorf("%s decoded to %+v, %v; want %+v", path, got, err, want)
		}
		if got.Label() != path {
			t.Errorf("%s labelled %s", path, got.Label())
		}
	}
	for _, path := range []string{"4LC", "4LC/EH4/HMC/PCM", "NMM/N6/PCM/x", "reference/EH1", "custom", "5LC/EH1"} {
		var s Spec
		if err := json.Unmarshal([]byte(`"`+path+`"`), &s); err == nil {
			t.Errorf("%s decoded to %+v", path, s)
		}
	}
}

// Bounds on what FuzzDesignSpec instantiates: building a cache allocates
// per line and a prefetcher loops per degree, so only specs within them
// are built and replayed.
const (
	fuzzMaxLines    = 1 << 16
	fuzzMaxPrefetch = 64
)

// FuzzDesignSpec: any JSON a Spec decodes from either resolves to a spec
// whose back end checks clean, builds and replays a small synthetic stream
// without panicking, or is refused with a typed *SpecError naming a field.
func FuzzDesignSpec(f *testing.F) {
	f.Add(`"NMM/N6"`)
	f.Add(`"4LCNVM/EH1/hmc/racetrack"`)
	f.Add(`{"family":"reference"}`)
	f.Add(`{"family":"4LC","config":"EH8","llc":"PCM"}`)
	f.Add(`{"family":"custom","custom":{"caches":[{"tech":"eDRAM","size_bytes":65536,"line_bytes":4096,"write_through":true,"prefetch_next":2}],"memory":{"tech":"PCM","capacity_bytes":4096}}}`)
	f.Add(`{"family":"custom","custom":{"caches":[{"tech":"DRAM","size_bytes":4096,"line_bytes":64,"assoc":1},{"tech":"HMC","size_bytes":32768,"line_bytes":4096,"assoc":64}],"memory":{"tech":"STTRAM"}}}`)
	f.Add(`{"family":"custom","custom":{"caches":[{"tech":"eDRAM","size_bytes":196608,"line_bytes":4096}],"memory":{"tech":"PCM"}}}`)
	f.Fuzz(func(t *testing.T, body string) {
		var s Spec
		if json.Unmarshal([]byte(body), &s) != nil {
			return
		}
		r := DefaultRegistry()
		if err := r.Resolve(&s); err != nil {
			var se *SpecError
			if !errors.As(err, &se) || se.Field == "" {
				t.Fatalf("Resolve refused %s with %#v, want a *SpecError naming a field", body, err)
			}
			return
		}
		b, err := r.Backend(s, 64, 1<<20)
		if err != nil {
			t.Fatalf("resolved spec %s does not build: %v", body, err)
		}
		if err := b.Check(); err != nil {
			t.Fatalf("resolved spec %s fails Check: %v", body, err)
		}
		for _, l := range b.Caches {
			if l.Size/l.Line > fuzzMaxLines || l.PrefetchNext > fuzzMaxPrefetch {
				return
			}
		}
		h, err := b.Build()
		if err != nil {
			t.Fatalf("resolved spec %s: Build: %v", body, err)
		}
		refs := make([]trace.Ref, 512)
		for i := range refs {
			refs[i] = trace.Ref{Addr: uint64(i*i*64) % (1 << 20), Size: 64, Kind: trace.Kind(i % 2)}
		}
		h.AccessBatch(refs)
		h.Flush()
		if got := len(h.Snapshot()); got != len(b.Caches)+1 {
			t.Fatalf("resolved spec %s: %d snapshot levels, want %d", body, got, len(b.Caches)+1)
		}
	})
}
