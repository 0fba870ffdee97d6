package experiments

import (
	"fmt"

	"bpart/internal/engine"
	"bpart/internal/fault"
	"bpart/internal/gen"
)

// faultRecoveryIters is the canonical PageRank depth of the recovery
// comparison — long enough that a mid-run crash has checkpoints behind it
// and supersteps ahead of it.
const faultRecoveryIters = 10

// defaultFaultSpec is the schedule the Fault Recovery experiment injects
// when the caller did not supply one (bench -fault): one crash at
// superstep 5 with checkpoints every 2 supersteps — the README walkthrough
// scenario, mirroring internal/fault/testdata/crash5.json.
func defaultFaultSpec() *fault.Spec {
	return &fault.Spec{
		CheckpointEvery: 2,
		Events:          []fault.Event{{Kind: fault.Crash, Step: 5, Machine: 1}},
	}
}

// recoveryPageRank runs the canonical PageRank workload for scheme on a
// fresh benchPartitionK-machine engine under spec (nil = fault-free; a
// non-nil spec is normalized in place, and the result carries Recovery).
func recoveryPageRank(d gen.Dataset, base Options, scheme string, spec *fault.Spec) (*engine.PRResult, error) {
	e, err := iterEngine(d, base, scheme, benchPartitionK)
	if err != nil {
		return nil, err
	}
	if err := attachFaults(base, e, spec); err != nil {
		return nil, err
	}
	res, err := e.PageRank(faultRecoveryIters, 0.85)
	if err != nil {
		return nil, fmt.Errorf("%s pagerank: %w", scheme, err)
	}
	return res, nil
}

// FaultRecovery is an extension beyond the paper: it reruns the canonical
// PageRank workload under a crash schedule and compares what recovery
// costs per partitioning scheme and policy. Rollback replays from the last
// checkpoint on the full cluster; restream additionally streams the dead
// machine's vertices onto the survivors' placement and finishes degraded. The
// overhead column is simulated time relative to the scheme's fault-free
// run — the fault-attributable slice of the paper's Fig 13 waiting
// argument.
func FaultRecovery(opt Options) (*Table, error) {
	d := gen.LJSim
	k := benchPartitionK
	spec := opt.Faults
	if spec == nil {
		spec = defaultFaultSpec()
	}
	spec = spec.ForMachines(k)
	// Engines are built fault-free here; each policy row attaches its own
	// controller, so the baseline row is a true no-fault run even under
	// bench -fault.
	base := opt
	base.Faults = nil

	t := &Table{
		ID:     "Fault Recovery",
		Title:  fmt.Sprintf("PageRank(%d) under a crash schedule on %s, k=%d (extension)", faultRecoveryIters, d, k),
		Header: []string{"scheme", "policy", "sim time (us)", "overhead", "ckpts", "replayed", "restreamed", "added wait"},
	}
	for _, scheme := range compareSchemes {
		free, err := recoveryPageRank(d, base, scheme, nil)
		if err != nil {
			return nil, err
		}
		faultFree := free.Stats.TotalTime()
		t.AddRow(scheme, "none", f2(faultFree), "-", "-", "-", "-", "-")
		for _, policy := range []fault.Policy{fault.Rollback, fault.Restream} {
			ps := spec.Clone()
			ps.Policy = policy
			res, err := recoveryPageRank(d, base, scheme, ps)
			if err != nil {
				return nil, err
			}
			rec := res.Recovery
			simTime := res.Stats.TotalTime()
			overhead := "-"
			if faultFree > 0 {
				overhead = fmt.Sprintf("%.1f%%", 100*(simTime-faultFree)/faultFree)
			}
			t.AddRow(scheme, string(policy), f2(simTime), overhead,
				d0(rec.Checkpoints), d0(rec.SuperstepsReplayed), d0(rec.RestreamedVertices), f4(rec.AddedWaitRatio))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("schedule: %d event(s), checkpoint every %d supersteps", len(spec.Events), spec.CheckpointEvery),
		"rollback replays from the last checkpoint; restream retires the dead machine and streams its vertices onto the survivors, continuing from their placement")
	return t, nil
}
