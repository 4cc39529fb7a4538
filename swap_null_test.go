package sigfim

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
)

// Public-API swap-null tests: the swap null rides the whole Significant
// pipeline deterministically for every worker count, and FindSMin documents
// its independence-only contract with an explicit rejection.

func TestSignificantSwapNullWorkerIdentity(t *testing.T) {
	d, err := OpenFIMI("testdata/golden_input.dat")
	if err != nil {
		t.Fatalf("open golden fixture: %v", err)
	}
	base := &Config{Delta: 40, Seed: 11, SwapNull: true, SwapProposalsPerOccurrence: 4}
	ref, err := d.Significant(2, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		cfg := *base
		cfg.Workers = workers
		rep, err := d.Significant(2, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, ref) {
			t.Fatalf("swap-null Significant differs between workers=1 and workers=%d", workers)
		}
	}
	// The swap and independence nulls are genuinely different models; on the
	// golden fixture their ladders should not coincide step for step.
	indep, err := d.Significant(2, &Config{Delta: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ref.Steps, indep.Steps) {
		t.Error("swap-null ladder identical to independence ladder; the null-model switch is not taking effect")
	}
}

func TestFindSMinRejectsSwapNull(t *testing.T) {
	d, err := OpenFIMI("testdata/golden_input.dat")
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.FindSMin(2, &Config{Delta: 20, Seed: 1, SwapNull: true})
	if err == nil {
		t.Fatal("FindSMin accepted SwapNull; want an explicit rejection")
	}
	if !strings.Contains(err.Error(), "independence null") {
		t.Errorf("rejection error %q does not explain the independence-only contract", err)
	}
}

// swapTwinGoldenHashes pins SwapTwin's output bytes (Dataset.Hash) on the
// golden fixture for a few seeds, captured from the map-based reference
// chain. Any change to the chain's RNG use, accept/reject decisions or
// materialization shows up here.
var swapTwinGoldenHashes = map[uint64]string{
	1: "efa3eb356544d8d0eae3c6d7c3f521cbf478e09e6b2463dc4ec0d8664be7a428",
	2: "c3e184d4366f669ad1f28de0e7f47da06e95e5471d4693047fde2533bc8fc65e",
	3: "6b19f820eeb837364af196bff1ccd595bc1483b0968c27c253a6e6662b7513f8",
}

func TestSwapTwinBytesPinned(t *testing.T) {
	d, err := OpenFIMI("testdata/golden_input.dat")
	if err != nil {
		t.Fatalf("open golden fixture: %v", err)
	}
	for seed, want := range swapTwinGoldenHashes {
		twin := d.SwapTwin(seed)
		if twin.NumItems() != d.NumItems() || twin.NumTransactions() != d.NumTransactions() {
			t.Fatalf("seed %d: twin dims %dx%d, want %dx%d", seed,
				twin.NumTransactions(), twin.NumItems(), d.NumTransactions(), d.NumItems())
		}
		if got := twin.Hash(); got != want {
			t.Errorf("seed %d: SwapTwin hash %s, want %s", seed, got, want)
		}
	}
}

func TestSwapChainLengthRejected(t *testing.T) {
	d, err := OpenFIMI("testdata/golden_input.dat")
	if err != nil {
		t.Fatalf("open golden fixture: %v", err)
	}
	for _, cfg := range []*Config{
		// MaxInt/2 proposals per occurrence overflow ppo*occ; unchecked, the
		// wrapped product could be a chain that never moves.
		{Delta: 20, Seed: 1, SwapNull: true, SwapProposalsPerOccurrence: math.MaxInt / 2},
		{Delta: 20, Seed: 1, SwapNull: true, SwapProposalsPerOccurrence: -1},
		{Delta: 20, Seed: 1, SwapNull: true, SwapProposals: -7},
	} {
		if err := d.ValidateConfig(cfg); err == nil {
			t.Errorf("ValidateConfig accepted ppo=%d proposals=%d", cfg.SwapProposalsPerOccurrence, cfg.SwapProposals)
		}
		if _, err := d.SignificantCtx(context.Background(), 2, cfg); err == nil || !strings.Contains(err.Error(), "swap chain") {
			t.Errorf("SignificantCtx with ppo=%d proposals=%d: err %v, want a swap chain error",
				cfg.SwapProposalsPerOccurrence, cfg.SwapProposals, err)
		}
		// The worker side of the fabric gets the same lengths from the wire.
		_, err := d.MineReplicateRange(context.Background(), PartialRequest{
			To: 1, K: 2, Floor: 1, Seeds: []uint64{1}, SwapNull: true,
			SwapProposalsPerOccurrence: cfg.SwapProposalsPerOccurrence, SwapProposals: cfg.SwapProposals,
		})
		if err == nil {
			t.Errorf("MineReplicateRange accepted ppo=%d proposals=%d", cfg.SwapProposalsPerOccurrence, cfg.SwapProposals)
		}
	}
	// Negative knobs are rejected even without SwapNull, as the service does.
	if _, err := d.FindSMin(2, &Config{Delta: 20, Seed: 1, SwapProposalsPerOccurrence: -1}); err == nil {
		t.Error("FindSMin accepted a negative SwapProposalsPerOccurrence")
	}
	// An absolute Proposals override makes a huge per-occurrence knob moot.
	if err := d.ValidateConfig(&Config{SwapNull: true, SwapProposalsPerOccurrence: math.MaxInt / 2, SwapProposals: 100}); err != nil {
		t.Errorf("ValidateConfig rejected an overridden ppo: %v", err)
	}
}
