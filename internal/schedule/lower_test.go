package schedule

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pruner/internal/ir"
	"pruner/internal/workloads"
)

// fig3Schedule builds the GEMM schedule of the paper's Figure 3 with
// hand-checkable tile assignments:
//
//	i: 128 = [I0=4, I1=8, I2=2, I3=2, I4=1]
//	j: 128 = [J0=2, J1=16, J2=1, J3=2, J4=2]
//	k: 128 = [K0=8, K1=4, K2=4]
func fig3() (*ir.Task, *Schedule) {
	task := ir.NewMatMul(128, 128, 128, ir.FP32, 1) // GEMM-ReLU
	s := &Schedule{
		SpatialTiles: [][NumSpatialLevels]int{
			{4, 8, 2, 2, 1},
			{2, 16, 1, 2, 2},
		},
		ReduceTiles: [][NumReduceLevels]int{{8, 4, 4}},
		UnrollStep:  64,
		VectorLen:   1,
		UseShared:   true,
	}
	return task, s
}

func TestLowerFig3Symbols(t *testing.T) {
	task, s := fig3()
	if err := s.Validate(task); err != nil {
		t.Fatal(err)
	}
	lw := Lower(task, s)

	// S4 / L1ParaInfo: threads per block = I1*J1 = 8*16.
	if lw.ThreadsPerBlock != 128 {
		t.Errorf("threads = %d, want 128", lw.ThreadsPerBlock)
	}
	// S6 / L2ParaInfo: blocks = I0*J0 = 8.
	if lw.Blocks != 8 {
		t.Errorf("blocks = %d, want 8", lw.Blocks)
	}
	// L0_C = (I2..I4)*(J2..J4) = (2*2*1)*(1*2*2) = 16,
	// L0_A = I2*I3*I4 = 4, L0_B = J2*J3*J4 = 4 => S1 = 24.
	if lw.RegsPerThread != 24 {
		t.Errorf("S1 regs = %g, want 24", lw.RegsPerThread)
	}
	// S2 = L0_C tile x K = 16 * 128 = 2048 MACs per thread.
	if lw.ThreadCompute != 2048 {
		t.Errorf("S2 = %g, want 2048", lw.ThreadCompute)
	}
	// L1_A = (I1..I4)x(K1*K2) = 32*16 = 512; L1_B = (J1..J4)*16 = 64*16 =
	// 1024 => S3 = 1536.
	if lw.SharedPerBlock != 1536 {
		t.Errorf("S3 shared = %g, want 1536", lw.SharedPerBlock)
	}
	// Traffic: A = M*K*J0 = 128*128*2; B = N*K*I0 = 128*128*4; C = 128*128.
	wantTraffic := float64(128*128*2 + 128*128*4 + 128*128)
	if lw.GlobalWords != wantTraffic {
		t.Errorf("S5 traffic = %g, want %g", lw.GlobalWords, wantTraffic)
	}
	// S8: 2*M*N*K MACs + fused epilogue.
	wantFlops := 2.0*128*128*128 + 128*128
	if lw.TotalFlops != wantFlops {
		t.Errorf("S8 = %g, want %g", lw.TotalFlops, wantFlops)
	}
	// Statement structure: init, 2 shared loads, compute, epilogue, store.
	kinds := []StmtKind{StmtInit, StmtLoadShared, StmtLoadShared, StmtCompute, StmtEpilogue, StmtStore}
	if len(lw.Stmts) != len(kinds) {
		t.Fatalf("%d statements, want %d", len(lw.Stmts), len(kinds))
	}
	for i, k := range kinds {
		if lw.Stmts[i].Kind != k {
			t.Errorf("stmt %d kind %s, want %s", i, lw.Stmts[i].Kind, k)
		}
	}
	// The A shared load refills K0 = 8 times per block.
	if lw.Stmts[1].Trips != 8 {
		t.Errorf("shared-load trips = %g, want 8", lw.Stmts[1].Trips)
	}
}

func TestLowerElementwiseFlat(t *testing.T) {
	task := ir.NewElementwise(4096, 3, ir.FP32)
	g := NewGenerator(task)
	s := g.Random(rand.New(rand.NewSource(1)))
	lw := Lower(task, s)
	if lw.SharedPerBlock != 0 {
		t.Errorf("elementwise shared = %g, want 0", lw.SharedPerBlock)
	}
	// Load, compute (fused ops), store.
	if len(lw.Stmts) != 3 {
		t.Fatalf("%d statements, want 3", len(lw.Stmts))
	}
	if lw.TotalFlops != 3*4096 {
		t.Errorf("flops = %g, want %d", lw.TotalFlops, 3*4096)
	}
}

// TestLowerInvariants: for random schedules of random GEMMs, lowering
// maintains its core accounting invariants.
func TestLowerInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(mi, ni, ki uint8) bool {
		m := int(mi%64)*8 + 8
		n := int(ni%64)*8 + 8
		k := int(ki%64)*8 + 8
		task := ir.NewMatMul(m, n, k, ir.FP32, 1)
		g := NewGenerator(task)
		s := g.Random(rng)
		lw := Lower(task, s)
		// Traffic at least the compulsory footprint.
		compulsory := float64(m*k + k*n + m*n)
		if lw.GlobalWords < compulsory {
			return false
		}
		// Blocks x threads covers the space at least once.
		if lw.Blocks <= 0 || lw.ThreadsPerBlock <= 0 {
			return false
		}
		// Per-thread compute x total threads x vthreads >= total MACs.
		totalMacs := float64(m) * float64(n) * float64(k)
		covered := lw.ThreadCompute * float64(lw.Blocks) * float64(lw.ThreadsPerBlock)
		return covered >= totalMacs-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerDepthwiseTouchesChannelAxis(t *testing.T) {
	task := ir.NewConv2D(ir.Conv2DShape{
		N: 1, H: 56, W: 56, CI: 96, CO: 96, KH: 3, KW: 3, Stride: 1, Pad: 1, Depthwise: true,
	}, ir.FP32, 1)
	g := NewGenerator(task)
	s := g.Random(rand.New(rand.NewSource(3)))
	lw := Lower(task, s)
	// Depthwise reduction is only over the kernel window: reduce points =
	// 1 * kh*kw = 9 per output element.
	wantFlops := 2.0*float64(task.OutputPoints())*9 + float64(task.OutputPoints())
	if lw.TotalFlops != wantFlops {
		t.Errorf("depthwise flops = %g, want %g", lw.TotalFlops, wantFlops)
	}
}

func TestHaloFootprintScale(t *testing.T) {
	shape := ir.Conv2DShape{N: 1, H: 28, W: 28, CI: 64, CO: 64, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := ir.NewConv2D(shape, ir.FP32, 0)
	if fs := conv.Inputs[0].FootprintScale; fs >= 1 || fs <= 0 {
		t.Fatalf("3x3 s1 conv input should have halo scale in (0,1), got %g", fs)
	}
	shape.Stride = 2
	conv2 := ir.NewConv2D(shape, ir.FP32, 0)
	if conv2.Inputs[0].FootprintScale <= conv.Inputs[0].FootprintScale {
		t.Fatal("larger stride should reduce halo reuse (bigger scale)")
	}
}

// sharedPropertyTasks is every registered workload's task list, plus FP16
// builds of a CNN and a transformer, whose odd tiles make half-word shared
// demands.
func sharedPropertyTasks(t *testing.T) []*ir.Task {
	t.Helper()
	var tasks []*ir.Task
	for _, name := range workloads.Names() {
		net, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, net.Tasks...)
	}
	tasks = append(tasks, workloads.ResNet50(1, ir.FP16).Tasks...)
	tasks = append(tasks, workloads.ViT(1, ir.FP16).Tasks...)
	return tasks
}

// TestSharedPerBlockMatchesLower: the lowering-free shared-memory helper
// equals Lower's SharedPerBlock bit for bit, and SharedFits agrees with
// the rounded-up budget test on the lowered value, over random, mutated
// and shared-stage-disabled schedules of every workload task.
func TestSharedPerBlockMatchesLower(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	budgets := []int{1024, 12288}
	fractional := 0
	for _, task := range sharedPropertyTasks(t) {
		g := NewGenerator(task)
		g.TensorCore = task.TensorCoreEligible() && rng.Intn(2) == 0
		s := g.Random(rng)
		for i := 0; i < 12; i++ {
			switch i % 3 {
			case 0:
				s = g.Random(rng)
			case 1:
				s = g.Mutate(rng, s)
			default:
				s = s.Clone()
				s.UseShared = !s.UseShared
			}
			lw := Lower(task, s)
			got := sharedPerBlock(task, s)
			if math.Float64bits(got) != math.Float64bits(lw.SharedPerBlock) {
				t.Fatalf("%s %s: sharedPerBlock %v, Lower says %v", task.Name, s.Fingerprint(), got, lw.SharedPerBlock)
			}
			words4 := lw.SharedPerBlock * float64(task.Precision.Bytes()) / 4
			if words4 != math.Trunc(words4) {
				fractional++
			}
			for _, b := range budgets {
				if want := int(math.Ceil(words4)) <= b; SharedFits(task, s, b) != want {
					t.Fatalf("%s %s: SharedFits(%d) = %v for %v words", task.Name, s.Fingerprint(), b, !want, words4)
				}
			}
		}
	}
	if fractional == 0 {
		t.Fatal("no schedule had a fractional shared demand; the rounding path went unchecked")
	}
}
