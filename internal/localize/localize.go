// Package localize implements automatic misconfiguration localization — the
// first item of the paper's §7 future work ("localizing the misconfiguration
// that causes the violation still relies on experts' manual analysis").
//
// Given a change plan whose verification fails, the localizer delta-debugs
// the plan: it splits each device's command block into stanzas (the units a
// CLI session applies atomically: a section header plus its indented body),
// then greedily searches for a minimal subset of stanzas that still triggers
// the violation. Stanzas outside that subset are exonerated; the remainder
// — typically one or two stanzas — is the place the expert should look.
// When even the *empty* plan violates the intents, the defect predates the
// change (Table 6's "existing misconfiguration" class) and the localizer
// says so.
//
// It reproduces no table or figure of the paper; it stays because it has a
// user surface, hoyan -localize.
package localize

import (
	"fmt"
	"strings"

	"hoyan/internal/change"
	"hoyan/internal/intent"
	"hoyan/internal/pipeline"
	"slices"
)

// Stanza is one atomic unit of a device's command block.
type Stanza struct {
	Device string
	Text   string
	// Index is the stanza's position within its device block.
	Index int
}

func (s Stanza) String() string {
	first := s.Text
	if i := strings.IndexByte(first, '\n'); i >= 0 {
		first = first[:i]
	}
	return fmt.Sprintf("%s#%d: %s", s.Device, s.Index, strings.TrimSpace(first))
}

// Result is the localization outcome.
type Result struct {
	// Culprits is a minimal set of stanzas that still breaks the
	// regression intents (intents the base state satisfied).
	Culprits []Stanza
	// Regressions are the intents the change broke (satisfied before,
	// violated after); the Culprits explain these.
	Regressions []string
	// Unachieved are intents violated both before and after the change:
	// either the change fails to achieve its goal or — as in the Figure
	// 10(a) case — a pre-existing misconfiguration blocks it. Localization
	// by command removal cannot explain these (nothing removed restores
	// them), so they are reported for expert attention.
	Unachieved []string
	// Trials counts the verification runs spent.
	Trials int
}

// Options bounds the search.
type Options struct {
	// MaxTrials caps verification runs (each a fork).
	MaxTrials int
}

// Localize finds a minimal subset of the plan's command stanzas that still
// violates the intents. The plan's non-command parts (topology deltas, new
// devices, input changes) are always applied: the localizer narrows down
// *commands*, the dominant root-cause class of Table 6.
func Localize(sys *pipeline.System, plan *change.Plan, intents []intent.Intent, o Options) (*Result, error) {
	if o.MaxTrials == 0 {
		o.MaxTrials = 64
	}
	res := &Result{}

	stanzas := SplitPlan(plan)
	check := func(keep []Stanza, its []intent.Intent) (allOK bool, perIntent []bool, err error) {
		if res.Trials >= o.MaxTrials {
			return false, nil, fmt.Errorf("localize: trial budget exhausted after %d runs", res.Trials)
		}
		res.Trials++
		trial := rebuildPlan(plan, keep)
		out, err := sys.Verify(trial, its)
		if err != nil {
			// A plan that cannot even apply counts as all-violating: the
			// culprit subset contains the unapplicable command.
			return false, make([]bool, len(its)), nil
		}
		per := make([]bool, len(its))
		for i, rep := range out.Reports {
			per[i] = rep.Satisfied
		}
		return out.OK, per, nil
	}

	fullOK, fullPer, err := check(stanzas, intents)
	if err != nil {
		return nil, err
	}
	if fullOK {
		return nil, fmt.Errorf("localize: the full plan verifies clean; nothing to localize")
	}
	_, emptyPer, err := check(nil, intents)
	if err != nil {
		return nil, err
	}

	// Partition the violated intents: regressions (held before the change,
	// broken after) are delta-debuggable; goals unachieved in both states
	// cannot be explained by removing commands.
	var regressions []intent.Intent
	for i, it := range intents {
		if fullPer[i] {
			continue
		}
		if emptyPer[i] {
			regressions = append(regressions, it)
			res.Regressions = append(res.Regressions, it.Describe())
		} else {
			res.Unachieved = append(res.Unachieved, it.Describe())
		}
	}
	if len(regressions) == 0 {
		return res, nil
	}

	violates := func(keep []Stanza) (bool, error) {
		ok, _, err := check(keep, regressions)
		return !ok, err
	}

	// Greedy ddmin-style reduction: repeatedly try to drop one stanza; keep
	// the drop when the violation persists. This yields a 1-minimal subset.
	current := append([]Stanza(nil), stanzas...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(current); i++ {
			candidate := append(append([]Stanza(nil), current[:i]...), current[i+1:]...)
			bad, err := violates(candidate)
			if err != nil {
				return nil, err
			}
			if bad {
				current = candidate
				changed = true
				i--
			}
		}
	}
	res.Culprits = current
	return res, nil
}

// SplitPlan breaks every device command block of the plan into stanzas. A
// stanza starts at a non-indented line and extends over the following
// indented lines; '!' and '#' separators terminate stanzas and are kept with
// them (so re-assembled blocks remain valid CLI input).
func SplitPlan(plan *change.Plan) []Stanza {
	var out []Stanza
	devices := make([]string, 0, len(plan.Commands))
	for d := range plan.Commands {
		devices = append(devices, d)
	}
	slices.Sort(devices)
	for _, dev := range devices {
		for i, text := range SplitStanzas(plan.Commands[dev]) {
			out = append(out, Stanza{Device: dev, Text: text, Index: i})
		}
	}
	return out
}

// SplitStanzas splits one command block into stanza texts.
func SplitStanzas(block string) []string {
	var out []string
	var cur []string
	flush := func() {
		if len(cur) > 0 {
			out = append(out, strings.Join(cur, "\n")+"\n")
			cur = nil
		}
	}
	for _, line := range strings.Split(block, "\n") {
		trimmed := strings.TrimRight(line, " \t\r")
		if strings.TrimSpace(trimmed) == "" {
			continue
		}
		sep := strings.TrimSpace(trimmed) == "!" || strings.TrimSpace(trimmed) == "#"
		indented := strings.HasPrefix(line, " ") || strings.HasPrefix(line, "\t")
		switch {
		case sep:
			cur = append(cur, trimmed)
			flush()
		case indented:
			cur = append(cur, trimmed)
		default:
			flush()
			cur = append(cur, trimmed)
		}
	}
	flush()
	return out
}

// rebuildPlan reassembles a plan containing only the kept stanzas (plus all
// non-command parts of the original).
func rebuildPlan(plan *change.Plan, keep []Stanza) *change.Plan {
	trial := *plan
	trial.ID = plan.ID + "-localize"
	trial.Commands = map[string]string{}
	for _, s := range keep {
		trial.Commands[s.Device] += s.Text
	}
	return &trial
}
