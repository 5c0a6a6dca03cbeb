package task

import (
	"math"
	"testing"
)

func TestPhaseString(t *testing.T) {
	if PhaseInput.String() != "input" || PhaseCompute.String() != "compute" ||
		PhaseOutput.String() != "output" {
		t.Error("phase names wrong")
	}
	if Phase(99).String() != "Phase(99)" {
		t.Error("unknown phase formatting wrong")
	}
}

func TestCostTotalAndOf(t *testing.T) {
	c := Cost{Input: 4, Compute: 149, Output: 1}
	if c.Total() != 154 {
		t.Errorf("Total = %v", c.Total())
	}
	if c.Of(PhaseInput) != 4 || c.Of(PhaseCompute) != 149 || c.Of(PhaseOutput) != 1 {
		t.Error("Of broken")
	}
	if c.Of(Phase(42)) != 0 {
		t.Error("Of(unknown) must be 0")
	}
}

func TestMatmulTable3Verbatim(t *testing.T) {
	// Spot-check Table 3 values on every server for each size.
	cases := []struct {
		size    int
		server  string
		in, cmp float64
	}{
		{1200, "chamagne", 4, 149},
		{1200, "pulney", 3, 14},
		{1500, "cabestan", 5, 136},
		{1500, "artimon", 5, 33},
		{1800, "chamagne", 8, 504},
		{1800, "artimon", 8, 53},
		{1800, "pulney", 7, 40},
	}
	for _, c := range cases {
		spec := Matmul(c.size)
		cost, ok := spec.Cost(c.server)
		if !ok {
			t.Fatalf("no cost for %d on %s", c.size, c.server)
		}
		if cost.Input != c.in || cost.Compute != c.cmp {
			t.Errorf("matmul %d on %s = %+v, want in=%v cmp=%v",
				c.size, c.server, cost, c.in, c.cmp)
		}
	}
}

func TestMatmulMemoryFootprints(t *testing.T) {
	want := map[int]float64{1200: 32.95, 1500: 51.49, 1800: 74.15}
	for size, mem := range want {
		got := Matmul(size).MemoryMB
		if math.Abs(got-mem) > 1e-9 {
			t.Errorf("matmul %d memory = %v, want %v", size, got, mem)
		}
	}
}

func TestWasteCPUTable4Verbatim(t *testing.T) {
	cases := []struct {
		param  int
		server string
		cmp    float64
	}{
		{200, "valette", 91.81},
		{200, "spinnaker", 16},
		{400, "cabestan", 148.48},
		{400, "artimon", 33.2},
		{600, "valette", 273.28},
		{600, "spinnaker", 45.6},
	}
	for _, c := range cases {
		cost, ok := WasteCPU(c.param).Cost(c.server)
		if !ok || cost.Compute != c.cmp {
			t.Errorf("wastecpu %d on %s compute = %v,%v, want %v",
				c.param, c.server, cost.Compute, ok, c.cmp)
		}
	}
	if WasteCPU(200).MemoryMB != 0 {
		t.Error("waste-cpu must need no memory")
	}
}

func TestSpecUnknownServer(t *testing.T) {
	if _, ok := Matmul(1200).Cost("nosuch"); ok {
		t.Error("unknown server returned a cost")
	}
}

func TestSpecPanicsOnUnknownVariant(t *testing.T) {
	for _, f := range []func(){func() { Matmul(999) }, func() { WasteCPU(999) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unknown variant did not panic")
				}
			}()
			f()
		}()
	}
}

func TestSpecLists(t *testing.T) {
	if got := len(MatmulSpecs()); got != 3 {
		t.Errorf("MatmulSpecs len = %d", got)
	}
	if got := len(WasteCPUSpecs()); got != 3 {
		t.Errorf("WasteCPUSpecs len = %d", got)
	}
	if MatmulSpecs()[1].Name() != "matmul-1500" {
		t.Errorf("spec name = %s", MatmulSpecs()[1].Name())
	}
}

func TestMetataskValidate(t *testing.T) {
	spec := WasteCPU(200)
	good := &Metatask{Name: "ok", Tasks: []*Task{
		{ID: 0, Spec: spec, Arrival: 0},
		{ID: 1, Spec: spec, Arrival: 5},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid metatask rejected: %v", err)
	}
	if good.Len() != 2 || good.Horizon() != 5 {
		t.Error("Len/Horizon broken")
	}

	bad := &Metatask{Name: "ids", Tasks: []*Task{{ID: 1, Spec: spec}}}
	if bad.Validate() == nil {
		t.Error("non-dense ids accepted")
	}
	unsorted := &Metatask{Name: "sort", Tasks: []*Task{
		{ID: 0, Spec: spec, Arrival: 10},
		{ID: 1, Spec: spec, Arrival: 5},
	}}
	if unsorted.Validate() == nil {
		t.Error("unsorted arrivals accepted")
	}
	nilspec := &Metatask{Name: "spec", Tasks: []*Task{{ID: 0}}}
	if nilspec.Validate() == nil {
		t.Error("nil spec accepted")
	}
	var empty Metatask
	if empty.Validate() != nil || empty.Horizon() != 0 {
		t.Error("empty metatask must validate with zero horizon")
	}
}

func TestTaskString(t *testing.T) {
	tk := &Task{ID: 3, Spec: Matmul(1500), Arrival: 12.5}
	if got := tk.String(); got != "task#3(matmul-1500@12.50s)" {
		t.Errorf("String = %q", got)
	}
}

// TestResolveSharesOneSpecPerType: the schedulers index a spec by
// pointer, so every way of naming a task type must yield the same one.
func TestResolveSharesOneSpecPerType(t *testing.T) {
	for _, c := range []struct {
		problem string
		variant int
		direct  *Spec
	}{
		{"matmul", 1500, Matmul(1500)},
		{"wastecpu", 400, WasteCPU(400)},
		{"synthetic", syntheticPoolStride + 64, Synthetic(1, 64)},
	} {
		a, err := Resolve(c.problem, c.variant)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Resolve(c.problem, c.variant)
		if a != b || a != c.direct {
			t.Errorf("%s-%d: Resolve gave %p then %p, the constructor %p", c.problem, c.variant, a, b, c.direct)
		}
	}
	if MatmulSpecs()[0] != Matmul(MatmulSizes[0]) || WasteCPUSpecs()[2] != WasteCPU(WasteCPUParams[2]) {
		t.Error("the spec lists do not hold the shared specs")
	}
}
