package exp

import (
	"fmt"
	"time"

	"hybridmem/internal/core"
	"hybridmem/internal/model"
	"hybridmem/internal/obs"
	"hybridmem/internal/reuse"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// Profile persistence: a WorkloadProfile is the expensive artifact of the
// whole harness — a full-stream prefix simulation plus the reference-system
// replay — and everything it holds besides the boundary stream is small,
// structured, and cheap to serialize. ProfileManifest is that small part;
// the boundary stream itself travels separately as a packed block stream
// (internal/store content-addresses it). Together they make "profile once,
// persist, reopen" possible: RestoreProfile rebuilds a ready-to-evaluate
// profile with zero boundary replay, which is what turns a warm restart
// from O(replay) into O(index).

// ProfileManifestVersion is the manifest schema version; RestoreProfile
// rejects manifests written by an incompatible schema. Version 2 added the
// reuse sketch (the analytic fast path's input); v1 manifests fail restore,
// which callers treat as a cache miss — the workload re-profiles and the
// write-through repairs the store with a sketch-bearing manifest.
const ProfileManifestVersion = 2

// ProfileManifest is the JSON-serializable state of a WorkloadProfile minus
// its boundary stream. It deliberately includes the reference-system
// profile: restoring without it would force a reference replay — a full
// O(stream) pass — on every reopen.
//
// The epoch time series (WorkloadProfile.Series) is not persisted: it is a
// profiling-time observability artifact, not evaluation state, and restored
// profiles carry a nil Series.
type ProfileManifest struct {
	// Version is the manifest schema version (ProfileManifestVersion).
	Version int `json:"version"`
	// Name, Footprint, RefTimeNS, and Regions mirror the profile's
	// workload identity fields.
	Name      string            `json:"name"`
	Footprint uint64            `json:"footprint"`
	RefTimeNS int64             `json:"ref_time_ns"`
	Regions   []workload.Region `json:"regions,omitempty"`
	// Prefix is the shared SRAM-prefix statistics (post-dilution).
	Prefix []core.LevelStats `json:"prefix"`
	// TotalRefs is the workload's reference count (post-dilution).
	TotalRefs uint64 `json:"total_refs"`
	// RefProfile is the cached reference-system evaluation input, so a
	// restored profile answers reference requests without any replay.
	RefProfile model.Profile `json:"ref_profile"`
	// BoundaryRefs pins the expected boundary-stream length; restore
	// fails fast on a stream that does not match its manifest.
	BoundaryRefs int `json:"boundary_refs"`
	// Sketch is the boundary stream's reuse sketch (FORMATS.md documents
	// the schema). Omitted when profiling ran with NoSketch; restored
	// profiles then simply cannot serve analytic queries.
	Sketch *reuse.Sketch `json:"sketch,omitempty"`
}

// Manifest captures the profile's serializable state (everything but the
// boundary stream and the epoch series).
func (wp *WorkloadProfile) Manifest() *ProfileManifest {
	return &ProfileManifest{
		Version:      ProfileManifestVersion,
		Name:         wp.Name,
		Footprint:    wp.Footprint,
		RefTimeNS:    int64(wp.RefTime),
		Regions:      wp.Regions,
		Prefix:       wp.Prefix,
		TotalRefs:    wp.TotalRefs,
		RefProfile:   wp.refProfile,
		BoundaryRefs: wp.Boundary.Len(),
		Sketch:       wp.Sketch,
	}
}

// RestoreProfile rebuilds a ready-to-evaluate WorkloadProfile from a
// manifest and its separately persisted boundary stream, refusing a
// manifest whose sketch fails reuse.Sketch.Validate. No simulation or
// replay runs: the returned profile evaluates design points exactly as the
// one Manifest was taken from (asserted bit-identical by the package
// tests). log receives the restored profile's later design_point events,
// like ProfileOptions.Log on a fresh profile.
func RestoreProfile(m *ProfileManifest, boundary *trace.Packed, log *obs.Logger) (*WorkloadProfile, error) {
	if m.Version != ProfileManifestVersion {
		return nil, fmt.Errorf("exp: profile manifest version %d (this build reads %d)", m.Version, ProfileManifestVersion)
	}
	if boundary == nil || boundary.Len() != m.BoundaryRefs {
		got := 0
		if boundary != nil {
			got = boundary.Len()
		}
		return nil, fmt.Errorf("exp: profile %q boundary stream has %d refs, manifest expects %d", m.Name, got, m.BoundaryRefs)
	}
	if len(m.Prefix) == 0 || m.TotalRefs == 0 {
		return nil, fmt.Errorf("exp: profile %q manifest missing prefix statistics", m.Name)
	}
	if m.Sketch != nil {
		if err := m.Sketch.Validate(); err != nil {
			return nil, fmt.Errorf("exp: profile %q: %w", m.Name, err)
		}
	}
	return &WorkloadProfile{
		Name:       m.Name,
		Footprint:  m.Footprint,
		RefTime:    time.Duration(m.RefTimeNS),
		Regions:    m.Regions,
		Prefix:     m.Prefix,
		Boundary:   boundary,
		TotalRefs:  m.TotalRefs,
		Sketch:     m.Sketch,
		refProfile: m.RefProfile,
		log:        log,
	}, nil
}
