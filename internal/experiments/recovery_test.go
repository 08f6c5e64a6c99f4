package experiments

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"fpmpart/internal/resilient"
)

func TestRecoveryExperiment(t *testing.T) {
	m := buildIGModels(t)
	tab, err := Recovery(m, 40, 40, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	// One fault-free reference row plus 3 crash points × 3 policies.
	if len(tab.Rows) != 1+9 {
		t.Fatalf("rows = %d, want 10", len(tab.Rows))
	}
	free := tab.Rows[0]
	if free[2] != "true" || free[3] != "0" {
		t.Errorf("fault-free row took recovery actions: %v", free)
	}
	freeTotal := cell(t, tab, 0, 7)
	units := 40 * 40 * 40 // n² units × n iterations
	for i, row := range tab.Rows[1:] {
		policy, completed := row[0], row[2]
		switch policy {
		case "no-recovery":
			if completed != "false" {
				t.Errorf("row %d: no-recovery claims completion: %v", i+1, row)
			}
			if lost := cell(t, tab, i+1, 5); lost <= 0 {
				t.Errorf("row %d: no-recovery lost no work: %v", i+1, row)
			}
		default:
			if completed != "true" {
				t.Errorf("row %d: %s did not complete: %v", i+1, policy, row)
			}
			// FPM re-partitioning moves work once, at the crash; the
			// proportional balancer also corrects the imbalance the models
			// leave, so it moves work more than once.
			if rebalances := cell(t, tab, i+1, 3); policy == "fpm-repartition" && rebalances != 1 {
				t.Errorf("row %d: %s rebalanced %v times, want 1", i+1, policy, rebalances)
			} else if policy == "proportional" && rebalances <= 1 {
				t.Errorf("row %d: %s rebalanced %v times, want more than 1", i+1, policy, rebalances)
			}
			if got := cell(t, tab, i+1, 4); int(got) != units {
				t.Errorf("row %d: units processed = %v, want %d", i+1, got, units)
			}
			if total := cell(t, tab, i+1, 7); total <= freeTotal {
				t.Errorf("row %d: recovery run faster (%v) than fault-free (%v)", i+1, total, freeTotal)
			}
		}
	}
	// No survivor's share crosses a memory cliff here, so the proportional
	// rule (speed as units/second on each survivor's share) lands near the
	// split FPM re-partitioning finds: the two totals agree within 5% at
	// every crash point.
	for i := 1; i < len(tab.Rows); i += 3 {
		fpmTotal := cell(t, tab, i, 7)
		propTotal := cell(t, tab, i+1, 7)
		if math.Abs(propTotal/fpmTotal-1) > 0.05 {
			t.Errorf("crash point %d: proportional recovery (%v s) not within 5%% of FPM (%v s)",
				(i-1)/3, propTotal, fpmTotal)
		}
	}
}

// TestRecoveryProportionalIsTheDynamicBalancer pins that the recovery
// table's proportional policy is the balancer of ablation-dynamic: run
// fault-free from the FPM start, it reports the rebalances, blocks moved and
// total of that table's FPM row.
func TestRecoveryProportionalIsTheDynamicBalancer(t *testing.T) {
	m := buildIGModels(t)
	tab, err := AblationDynamic(m, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	start, err := m.PartitionFPM(60)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := wrapSpec("", 1, m.DeviceOracle())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := resilient.Run(m.Devices(), oracle, start.Units(), 60, resilient.Options{
		Policy:        resilient.Proportional,
		MigrationCost: m.MigrationCostPerUnit(),
	})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, st := range tr.Steps {
		moved += st.Moved
	}
	got := []string{strconv.Itoa(tr.Rebalances), strconv.Itoa(moved), fmt.Sprintf("%.1f", tr.TotalSeconds)}
	if want := tab.Rows[2][1:4]; !slices.Equal(got, want) { // rows: homogeneous, CPM, FPM
		t.Errorf("fault-free proportional run (rebalances, moved, total) = %v, ablation-dynamic FPM row %v", got, want)
	}
}

func TestRecoveryExperimentCustomSpec(t *testing.T) {
	m := buildIGModels(t)
	tab, err := Recovery(m, 30, 30, "slow:dev=1,iter=10,factor=3", 5)
	if err != nil {
		t.Fatal(err)
	}
	// Custom spec: 1 reference row + 1 fault × 3 policies.
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	if !strings.Contains(tab.Rows[1][1], "custom") {
		t.Errorf("fault label = %q, want custom", tab.Rows[1][1])
	}
}

// The default scenario's notes count rebalances its own rows show; under a
// custom spec no note claims a rebalance count the table may contradict.
func TestRecoveryCustomSpecMakesNoRebalanceClaim(t *testing.T) {
	m := buildIGModels(t)
	tab, err := Recovery(m, 60, 60, "slow:dev=0,iter=10,factor=3", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, note := range tab.Notes {
		if strings.Contains(note, "rebalance") {
			t.Errorf("custom-spec note claims a rebalance count: %q", note)
		}
	}
	def, err := Recovery(m, 40, 40, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Notes) == 0 {
		t.Error("default scenario prints no notes")
	}
}

func TestRecoveryExperimentRejectsBadSpec(t *testing.T) {
	m := buildIGModels(t)
	if _, err := Recovery(m, 20, 20, "warp:dev=0,iter=1", 1); err == nil {
		t.Fatal("bad fault spec accepted")
	}
}

func TestRecoveryRegistered(t *testing.T) {
	found := false
	for _, n := range Names() {
		if n == "recovery" {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovery not in registry: %v", Names())
	}
}
