package tech

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBuiltinExtensions checks the post-2014 entries: present, marked as
// extensions, non-volatile NVM-class, valid, and excluded from the
// paper-default NVM sweep set.
func TestBuiltinExtensions(t *testing.T) {
	cat := Builtin()
	for _, name := range []string{"RTM", "FeFET", "STTRAM-2024", "ReRAM"} {
		e, ok := cat.Entry(name)
		if !ok {
			t.Errorf("builtin catalog missing post-2014 entry %s", name)
			continue
		}
		if !e.Extension || e.Class != ClassNVM || !e.Tech.NonVolatile {
			t.Errorf("%s: extension=%t class=%q non_volatile=%t, want extension nvm non-volatile",
				name, e.Extension, e.Class, e.Tech.NonVolatile)
		}
		if err := e.Tech.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for _, def := range cat.NVMs() {
			if def.Name == name {
				t.Errorf("%s leaked into the paper-default NVM sweep set", name)
			}
		}
	}
	if _, err := cat.Tech("Racetrack"); err != nil {
		t.Errorf("RTM alias Racetrack: %v", err)
	}
}

// TestNewCustomRejections exercises every malformed-value class the loader
// and NewCustom must reject with a typed *ValueError: NaN, both infinities,
// zero and negative latencies, negative energy, negative static power.
func TestNewCustomRejections(t *testing.T) {
	good := Tech{Name: "X", ReadNS: 1, WriteNS: 2, ReadPJPerBit: 3, WritePJPerBit: 4}
	if _, err := NewCustom(good); err != nil {
		t.Fatalf("valid tech rejected: %v", err)
	}
	cases := []struct {
		label  string
		mutate func(*Tech)
		field  string
	}{
		{"nan read latency", func(c *Tech) { c.ReadNS = math.NaN() }, "read_ns"},
		{"+inf write latency", func(c *Tech) { c.WriteNS = math.Inf(1) }, "write_ns"},
		{"-inf read latency", func(c *Tech) { c.ReadNS = math.Inf(-1) }, "read_ns"},
		{"zero read latency", func(c *Tech) { c.ReadNS = 0 }, "read_ns"},
		{"zero write latency", func(c *Tech) { c.WriteNS = 0 }, "write_ns"},
		{"negative write latency", func(c *Tech) { c.WriteNS = -3 }, "write_ns"},
		{"nan read energy", func(c *Tech) { c.ReadPJPerBit = math.NaN() }, "read_pj_per_bit"},
		{"negative write energy", func(c *Tech) { c.WritePJPerBit = -0.1 }, "write_pj_per_bit"},
		{"+inf write energy", func(c *Tech) { c.WritePJPerBit = math.Inf(1) }, "write_pj_per_bit"},
		{"negative static per GB", func(c *Tech) { c.StaticWPerGB = -1 }, "static_w_per_gb"},
		{"nan static fixed", func(c *Tech) { c.StaticWFixed = math.NaN() }, "static_w_fixed"},
	}
	for _, c := range cases {
		bad := good
		c.mutate(&bad)
		_, err := NewCustom(bad)
		if err == nil {
			t.Errorf("%s: accepted", c.label)
			continue
		}
		var ve *ValueError
		if !errors.As(err, &ve) {
			t.Errorf("%s: error %T (%v), want *ValueError", c.label, err, err)
			continue
		}
		if ve.Field != c.field {
			t.Errorf("%s: field %q, want %q", c.label, ve.Field, c.field)
		}
		if ve.Tech != "X" {
			t.Errorf("%s: tech %q, want X", c.label, ve.Tech)
		}
		// The catalog loader funnels through the same validation.
		if _, cerr := NewCatalog("t", "v", []Entry{{Tech: bad, Class: ClassNVM}}); cerr == nil {
			t.Errorf("%s: catalog accepted the entry", c.label)
		} else if !errors.As(cerr, &ve) {
			t.Errorf("%s: catalog error %v does not wrap *ValueError", c.label, cerr)
		}
	}
}

// TestParseCatalogStructuralErrors covers file-level defects: format line,
// identity fields, unknown classes, duplicate names, alias collisions,
// unknown JSON fields, and in-file zero latencies.
func TestParseCatalogStructuralErrors(t *testing.T) {
	cases := []struct {
		label, body, want string
	}{
		{"bad format", `{"format":"hybridmem-catalog/999","name":"x","version":"1","techs":[]}`, "format"},
		{"missing name", `{"format":"hybridmem-catalog/1","version":"1","techs":[{"name":"A","class":"nvm","read_ns":1,"write_ns":1,"read_pj_per_bit":1,"write_pj_per_bit":1}]}`, "name"},
		{"missing version", `{"format":"hybridmem-catalog/1","name":"x","techs":[{"name":"A","class":"nvm","read_ns":1,"write_ns":1,"read_pj_per_bit":1,"write_pj_per_bit":1}]}`, "version"},
		{"no techs", `{"format":"hybridmem-catalog/1","name":"x","version":"1","techs":[]}`, "no technologies"},
		{"unknown class", `{"format":"hybridmem-catalog/1","name":"x","version":"1","techs":[{"name":"A","class":"quantum","read_ns":1,"write_ns":1,"read_pj_per_bit":1,"write_pj_per_bit":1}]}`, "class"},
		{"zero latency", `{"format":"hybridmem-catalog/1","name":"x","version":"1","techs":[{"name":"A","class":"nvm","read_ns":0,"write_ns":1,"read_pj_per_bit":1,"write_pj_per_bit":1}]}`, "read_ns"},
		{"negative energy", `{"format":"hybridmem-catalog/1","name":"x","version":"1","techs":[{"name":"A","class":"nvm","read_ns":1,"write_ns":1,"read_pj_per_bit":-1,"write_pj_per_bit":1}]}`, "read_pj_per_bit"},
		{"duplicate name", `{"format":"hybridmem-catalog/1","name":"x","version":"1","techs":[{"name":"A","class":"nvm","read_ns":1,"write_ns":1,"read_pj_per_bit":1,"write_pj_per_bit":1},{"name":"a","class":"nvm","read_ns":1,"write_ns":1,"read_pj_per_bit":1,"write_pj_per_bit":1}]}`, "collides"},
		{"alias collision", `{"format":"hybridmem-catalog/1","name":"x","version":"1","techs":[{"name":"A","class":"nvm","read_ns":1,"write_ns":1,"read_pj_per_bit":1,"write_pj_per_bit":1},{"name":"B","class":"nvm","aliases":["A"],"read_ns":1,"write_ns":1,"read_pj_per_bit":1,"write_pj_per_bit":1}]}`, "collides"},
		{"unknown field", `{"format":"hybridmem-catalog/1","name":"x","version":"1","techs":[{"name":"A","class":"nvm","read_ns":1,"write_ns":1,"read_pj_per_bit":1,"write_pj_per_bit":1,"write_mj":9}]}`, "unknown field"},
	}
	for _, c := range cases {
		_, err := ParseCatalog([]byte(c.body))
		if err == nil {
			t.Errorf("%s: accepted", c.label)
			continue
		}
		var ce *CatalogError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %T (%v), want *CatalogError", c.label, err, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.label, err, c.want)
		}
	}
}

// TestCatalogHashSensitivity: the same bytes hash identically across
// parses, and any value edit — or a WithEntries override — changes the hash.
func TestCatalogHashSensitivity(t *testing.T) {
	a, err := ParseCatalog(BuiltinJSON())
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != Builtin().Hash() {
		t.Error("re-parse of the embedded bytes hashed differently")
	}
	faster := Builtin().MustTech("PCM")
	faster.WriteNS = 50
	edited, err := Builtin().WithEntries(Entry{Tech: faster, Class: ClassNVM, Source: "edited"})
	if err != nil {
		t.Fatal(err)
	}
	if edited.Hash() == Builtin().Hash() {
		t.Error("editing PCM write_ns did not change the catalog hash")
	}
	if got := edited.MustTech("PCM").WriteNS; got != 50 {
		t.Errorf("override not applied: write_ns = %g", got)
	}
	if Builtin().MustTech("PCM").WriteNS != 100 {
		t.Error("WithEntries mutated the receiver")
	}
	if !strings.HasSuffix(edited.Version(), "+overrides") {
		t.Errorf("derived version %q lacks +overrides marker", edited.Version())
	}
	appended, err := Builtin().WithEntries(Entry{
		Tech:  Tech{Name: "ULTRARAM", ReadNS: 5, WriteNS: 5, ReadPJPerBit: 0.1, WritePJPerBit: 0.1, NonVolatile: true},
		Class: ClassNVM, Extension: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if appended.Hash() == Builtin().Hash() {
		t.Error("appending an entry did not change the catalog hash")
	}
	if _, err := appended.Tech("ultraram"); err != nil {
		t.Errorf("appended entry not resolvable: %v", err)
	}
}

// TestCatalogLookup covers alias and case-insensitive resolution plus the
// typed unknown-name error.
func TestCatalogLookup(t *testing.T) {
	cat := Builtin()
	for _, name := range []string{"DRAM", "dram", "RAM", "ram", "pcm", "Sram-L1"} {
		if _, err := cat.Tech(name); err != nil {
			t.Errorf("Tech(%q): %v", name, err)
		}
	}
	_, err := cat.Tech("flux-capacitor")
	var ue *UnknownError
	if !errors.As(err, &ue) {
		t.Fatalf("unknown lookup error %T (%v), want *UnknownError", err, err)
	}
	if ue.Name != "flux-capacitor" || len(ue.Known) == 0 {
		t.Errorf("UnknownError = %+v", ue)
	}
}

// FuzzParseCatalog feeds arbitrary bytes to ParseCatalog, seeded with the
// builtin catalog and every example catalog. It must never panic, must
// reject only with a *CatalogError, and must accept only catalogs whose
// entries all validate and whose bytes parse again to the same hash.
func FuzzParseCatalog(f *testing.F) {
	f.Add(BuiltinJSON())
	examples, err := filepath.Glob("../../examples/catalogs/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example catalogs to seed from (%v)", err)
	}
	for _, path := range examples {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := ParseCatalog(b)
		if err != nil {
			if _, ok := err.(*CatalogError); !ok {
				t.Fatalf("rejection %T (%v), want *CatalogError", err, err)
			}
			return
		}
		for _, e := range c.Entries() {
			if err := e.Tech.Validate(); err != nil {
				t.Errorf("accepted entry %q fails Validate: %v", e.Tech.Name, err)
			}
		}
		again, err := ParseCatalog(b)
		if err != nil {
			t.Fatalf("accepted catalog rejected on a second parse: %v", err)
		}
		if again.Hash() != c.Hash() {
			t.Errorf("same bytes parsed to hashes %s and %s", c.Hash(), again.Hash())
		}
	})
}
