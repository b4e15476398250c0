package run

import (
	"errors"
	"testing"

	"repro/internal/par"
)

// fakeSpec records the options Execute saw and returns a canned report.
type fakeSpec struct {
	got *Options
	rep Report
	err error
}

func (f *fakeSpec) Protocol() string { return "fake" }

func (f *fakeSpec) Execute(o *Options) (Report, error) {
	f.got = o
	return f.rep, f.err
}

func TestRunValidatesOptions(t *testing.T) {
	if _, err := Run(nil); err == nil {
		t.Error("accepted a nil spec")
	}
	for _, k := range []int{0, -2} {
		spec := &fakeSpec{}
		if _, err := Run(spec, WithWorkers(k)); err == nil || spec.got != nil {
			t.Errorf("workers=%d: err %v, executed %v: want an error before Execute", k, err, spec.got != nil)
		}
	}
	boom := errors.New("boom")
	if _, err := Run(&fakeSpec{err: boom}); !errors.Is(err, boom) {
		t.Errorf("Execute's error came back as %v", err)
	}
}

func TestRunStampsReport(t *testing.T) {
	// Execute's own values for the stamped fields lose; the rest survives.
	spec := &fakeSpec{rep: Report{Protocol: "x", Seed: 1, Workers: 9, Trajectory: []int{1, 3, 4}, Messages: 17}}
	rep, err := Run(spec, WithSeed(42), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Protocol != "fake" || rep.Seed != 42 || rep.Workers != 3 {
		t.Errorf("stamped (%q, %d, %d), want (fake, 42, 3)", rep.Protocol, rep.Seed, rep.Workers)
	}
	if rep.Rounds != 3 || rep.Messages != 17 {
		t.Errorf("rounds %d messages %d, want 3 (the trajectory's length) and 17", rep.Rounds, rep.Messages)
	}
	if spec.got.Budget == nil || spec.got.Budget.Total() != 3 {
		t.Errorf("Execute saw budget %v, want one of 3 workers", spec.got.Budget)
	}
	if rep, err = Run(spec); err != nil || rep.Workers != 1 || rep.Seed != 0 {
		t.Errorf("defaults: workers %d seed %d err %v, want 1, 0, nil", rep.Workers, rep.Seed, err)
	}
	shared, err := par.NewBudget(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, WithBudget(shared)); err != nil || spec.got.Budget != shared {
		t.Errorf("Execute saw budget %p (err %v), want the shared one %p", spec.got.Budget, err, shared)
	}
}
