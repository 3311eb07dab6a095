package experiment

import (
	"strings"
	"testing"
)

func TestQNameMinimizationReducesExposure(t *testing.T) {
	res := result(t, "qname-min").(*QNameMinResult)
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	full, min := res.Points[0], res.Points[1]
	if full.RootFullNames == 0 || full.TLDFullNames == 0 {
		t.Fatalf("baseline discloses nothing? %+v", full)
	}
	// Minimization must eliminate full-name disclosure to the root and
	// reduce it at TLDs (TLDs still see the SLD name — it is the label
	// being probed — so the reduction shows at the root).
	if min.RootFullNames != 0 {
		t.Errorf("minimized root exposure = %d, want 0", min.RootFullNames)
	}
	// The registry keeps seeing everything: minimization is orthogonal to
	// the paper's leak.
	if min.DLVLeaked == 0 || full.DLVLeaked == 0 {
		t.Errorf("registry leakage vanished: full=%d min=%d", full.DLVLeaked, min.DLVLeaked)
	}
	if !strings.Contains(res.String(), "minimized") {
		t.Error("rendering broken")
	}
}

func TestPhaseOutAllCase2(t *testing.T) {
	res := result(t, "phaseout").(*PhaseOutResult)
	if res.NormalCase1 == 0 {
		t.Error("normal registry shows no Case-1 at all")
	}
	if res.PhasedCase1 != 0 {
		t.Errorf("phased-out registry cannot produce Case-1 hits, got %d", res.PhasedCase1)
	}
	if res.PhasedCase2 == 0 || res.PhasedQueries == 0 {
		t.Errorf("phased-out registry sees nothing: %+v", res)
	}
	if !strings.Contains(res.String(), "phased-out") {
		t.Error("rendering broken")
	}
}

func TestPolicyAblation(t *testing.T) {
	res := result(t, "policy").(*PolicyResult)
	if res.StrictLeaked >= res.LaxLeaked {
		t.Errorf("strict policy did not reduce leakage: %d vs %d",
			res.StrictLeaked, res.LaxLeaked)
	}
	if res.StrictQueries >= res.LaxQueries {
		t.Errorf("strict policy did not reduce registry load: %d vs %d",
			res.StrictQueries, res.LaxQueries)
	}
	// Validation utility preserved: secure answers stay comparable.
	if res.StrictSecure < res.LaxSecure {
		t.Errorf("strict policy lost validation utility: %d vs %d",
			res.StrictSecure, res.LaxSecure)
	}
	if !strings.Contains(res.String(), "signed-only") {
		t.Error("rendering broken")
	}
}

func TestPaddingCollapsesSizeChannel(t *testing.T) {
	res := result(t, "padding").(*PaddingResult)
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	plain, padded := res.Points[0], res.Points[1]
	if plain.Responses == 0 || plain.Responses != padded.Responses {
		t.Fatalf("response counts: %d vs %d", plain.Responses, padded.Responses)
	}
	if padded.DistinctSizes >= plain.DistinctSizes {
		t.Errorf("padding did not reduce the size alphabet: %d vs %d",
			padded.DistinctSizes, plain.DistinctSizes)
	}
	if padded.EntropyBits >= plain.EntropyBits {
		t.Errorf("padding did not reduce entropy: %.2f vs %.2f",
			padded.EntropyBits, plain.EntropyBits)
	}
	if padded.MeanSize <= plain.MeanSize {
		t.Errorf("padding is not free: mean %.0f vs %.0f", padded.MeanSize, plain.MeanSize)
	}
	// Every padded response lands on a block boundary by construction;
	// the distinct-size alphabet should be tiny (1-3 buckets).
	if padded.DistinctSizes > 4 {
		t.Errorf("padded alphabet too large: %d", padded.DistinctSizes)
	}
	if !strings.Contains(res.String(), "padding") {
		t.Error("rendering broken")
	}
}

func TestEnumerationAttack(t *testing.T) {
	res := result(t, "enumeration").(*EnumerationResult)
	if res.Deposits == 0 {
		t.Fatal("registry empty; nothing to enumerate")
	}
	if !res.Complete || res.Recall < 0.999 {
		t.Fatalf("walk incomplete: complete=%t recall=%.3f", res.Complete, res.Recall)
	}
	if res.Queries > res.Deposits*4+100 {
		t.Fatalf("walk too expensive: %d probes for %d deposits", res.Queries, res.Deposits)
	}
	if !res.NSEC3Blocked {
		t.Fatal("NSEC3 registry was walkable")
	}
	if !strings.Contains(res.String(), "recall") {
		t.Error("rendering broken")
	}
}
