package serve

import "testing"

// TestKeyGolden pins the absolute result-cache key of a few requests. Every
// result persisted to a durable store is filed under such a key, so a
// change to the canonical design spelling, a default, the key material or
// the builtin catalog's hash silently orphans every stored result. A
// deliberate key change updates these digests and says so in CHANGES.md.
func TestKeyGolden(t *testing.T) {
	for _, tc := range []struct{ name, body, key string }{
		{"grid path",
			`{"design":"NMM/N6","workload":"CG"}`,
			"ae6eeb7717e3130c21f138cd3c77ad295338bd73449f6221f0f767f16575b983"},
		{"full path with knobs",
			`{"design":"4LCNVM/EH3/HMC/FeRAM","workload":"BT","scale":64,"workload_scale":2048,"iters":2,"dilution":-1}`,
			"23a39e6e6c57b114e1affd78fc96ffa895faed0225beb5afbd583de9a442f426"},
		{"object form with aliases",
			`{"design":{"family":"NMM","config":"N2","nvm":"racetrack"},"workload":"Graph500","scale":16}`,
			"bec925358ab7744904377d09e357cf3166e997c5cc601c3ebc96f50d3d5c6b6b"},
		{"custom with assoc omitted",
			`{"design":{"family":"custom","custom":{"caches":[{"tech":"edram","size_bytes":1048576,"line_bytes":4096}],"memory":{"tech":"PCM"}}},"workload":"CG","scale":64,"workload_scale":2048}`,
			"022a9708bd617857190a23486aa24747473a89900f545b3bf00c48818e64b71f"},
		{"custom with assoc 16",
			`{"design":{"family":"custom","custom":{"caches":[{"tech":"edram","size_bytes":1048576,"line_bytes":4096,"assoc":16}],"memory":{"tech":"PCM"}}},"workload":"CG","scale":64,"workload_scale":2048}`,
			"c36e14953b9b1cf19a2513825781c99dfb5f29e4251e6632fedad5fdd584d149"},
		{"analytic fidelity",
			`{"design":"4LC/EH4","workload":"CG","fidelity":"analytic"}`,
			"ed1947247a084b5842bcdeea16e4aadd3420bd5650c6b654ace02ad163af3152"},
		{"fault spec",
			`{"design":"NMM/N1","workload":"CG","fault":{"seed":3,"bit_error_rate":1e-9,"endurance_writes":100,"page_bytes":4096}}`,
			"d03b930d12717fe72d36078080b5b297bec64ff46cc321262400a11fb0649903"},
		{"tech override",
			`{"design":"NMM/N6/PCM","workload":"CG","tech_overrides":{"PCM":{"read_ns":21,"write_ns":50,"read_pj_per_bit":12.4,"write_pj_per_bit":210.3,"non_volatile":true}}}`,
			"f1349d9a298d226c7abe609c08ee8b396466f3a12b17471050dc06eb33f727ef"},
	} {
		if got := norm(t, tc.body).Key(); got != tc.key {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.key)
		}
	}
}
