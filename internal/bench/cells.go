package bench

import (
	"fmt"

	"metalsvm/internal/core"
	"metalsvm/internal/svm"
	"metalsvm/internal/svm/repldir"
)

// Sizes are the sizes a representative cell runs at: the mailbox cells'
// ping-pong rounds and the Laplace study of the SVM cells.
type Sizes struct {
	Rounds int
	Fig9   Fig9Config
}

// Cell is one representative cell of a figure harness, the row of Cells
// that every observing mode and perturbation check runs.
type Cell struct {
	Name string
	// Mail marks the mailbox ping-pongs, which never touch the SVM window.
	Mail bool
	// Run builds and runs the cell at the sizes s with inst's observers
	// attached. It returns the record, comparable with ==, the observation
	// (nil when inst requests nothing) and a one-line description of the
	// result.
	Run func(s Sizes, inst core.Instrumentation) (record any, obs *core.Observation, desc string)
}

// Cells is the table of representative cells, one per figure harness plus
// Fig 9's cell on the replicated ownership directory.
var Cells = []Cell{
	{"fig6", true, func(s Sizes, inst core.Instrumentation) (any, *core.Observation, string) {
		r, obs := Fig6Cell(s.Rounds, nil, inst)
		return r, obs, fmt.Sprintf("IPI ping-pong at maximum mesh distance: %.3f us half round trip", r.US)
	}},
	{"fig7", true, func(s Sizes, inst core.Instrumentation) (any, *core.Observation, string) {
		r, obs := Fig7Cell(s.Rounds, 48, nil, inst)
		return r, obs, fmt.Sprintf("polling ping-pong with 48 activated cores: %.3f us half round trip", r.US)
	}},
	{"table1", false, func(s Sizes, inst core.Instrumentation) (any, *core.Observation, string) {
		r, obs := Table1(svm.Strong, inst)
		return r, obs, fmt.Sprintf("strong-model overhead benchmark: map %.3f us, retrieve %.3f us", r.MapUS, r.RetrieveUS)
	}},
	{"fig9", false, func(s Sizes, inst core.Instrumentation) (any, *core.Observation, string) {
		r, obs := Fig9Cell(s.Fig9, svm.Strong, core.Options{Members: core.FirstN(8), Observe: inst})
		return r, obs, fmt.Sprintf("Laplace on 8 cores, strong model: %.1f us iteration loop", r.US)
	}},
	{"repldir", false, func(s Sizes, inst core.Instrumentation) (any, *core.Observation, string) {
		r, obs := Fig9Cell(s.Fig9, svm.Strong, core.Options{
			Members: core.FirstN(8), Observe: inst, ReplicatedDirectory: &repldir.Config{},
		})
		return r, obs, fmt.Sprintf("Laplace on 8 workers, strong model, replicated ownership directory: %.1f us iteration loop", r.US)
	}},
}
