package report

import (
	"strings"
	"testing"

	"metalsvm/internal/core"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
)

func TestReportAfterWorkload(t *testing.T) {
	chipCfg := scc.DefaultConfig()
	chipCfg.PrivateMemPerCore = 1 << 20
	chipCfg.SharedMem = 16 << 20
	scfg := svm.DefaultConfig(svm.Strong)
	m, err := core.NewMachine(core.Options{
		Topology: &chipCfg,
		SVM:      &scfg,
		Members:  []int{0, 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.RunAll(func(env *core.Env) {
		base := env.SVM.Alloc(8192)
		for i := uint32(0); i < 64; i++ {
			env.Core().Store64(base+i*8, uint64(i))
			env.Core().Load64(base + i*8)
		}
		env.SVM.Barrier()
	})

	rows := CollectCores(m.Chip, m.Cluster.Members())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Loads == 0 || r.Stores == 0 {
			t.Errorf("core %d: empty counters %+v", r.Core, r)
		}
		if r.L1HitRate < 0 || r.L1HitRate > 1 {
			t.Errorf("core %d: hit rate %v out of range", r.Core, r.L1HitRate)
		}
		if r.WCBCombining < 1 {
			t.Errorf("core %d: WCB combining %v — MPBT stores did not combine", r.Core, r.WCBCombining)
		}
	}

	var sb strings.Builder
	WriteCores(&sb, rows)
	WriteMailbox(&sb, m.Cluster.Mailbox())
	WriteSVM(&sb, m.Cluster, m.SVM)
	out := sb.String()
	for _, want := range []string{"L1 hit", "mailbox (ipi)", "first-touch", "core"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
