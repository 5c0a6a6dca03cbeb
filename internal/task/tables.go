package task

import (
	"fmt"
	"sync"
)

// This file embeds the paper's published cost data.
//
// Table 3 (matrix multiplication): per-server phase costs in seconds and
// memory needs in megabytes, for square matrices of size 1200, 1500 and
// 1800 on the first-set servers chamagne, cabestan, artimon and pulney.
//
// Table 4 (waste-cpu): per-server phase costs in seconds for parameters
// 200, 400 and 600 on the second-set servers valette, spinnaker,
// cabestan and artimon. waste-cpu was designed by the authors to need
// no memory.

// MatmulSizes lists the matrix sizes used in the first set of
// experiments, in the order of Table 3.
var MatmulSizes = []int{1200, 1500, 1800}

// WasteCPUParams lists the waste-cpu parameters used in the second set
// of experiments, in the order of Table 4.
var WasteCPUParams = []int{200, 400, 600}

// matmulMemory maps matrix size to the resident footprint in MB:
// the sum of the input and output matrix memory needs from Table 3.
var matmulMemory = map[int]float64{
	1200: 21.97 + 10.98, // 32.95 MB
	1500: 34.33 + 17.16, // 51.49 MB
	1800: 49.43 + 24.72, // 74.15 MB
}

// matmulCosts holds Table 3 verbatim: costs[size][server] in seconds.
var matmulCosts = map[int]map[string]Cost{
	1200: {
		"chamagne": {Input: 4, Compute: 149, Output: 1},
		"cabestan": {Input: 4, Compute: 70, Output: 1},
		"artimon":  {Input: 3, Compute: 18, Output: 1},
		"pulney":   {Input: 3, Compute: 14, Output: 1},
	},
	1500: {
		"chamagne": {Input: 6, Compute: 292, Output: 2},
		"cabestan": {Input: 5, Compute: 136, Output: 2},
		"artimon":  {Input: 5, Compute: 33, Output: 1},
		"pulney":   {Input: 5, Compute: 25, Output: 1},
	},
	1800: {
		"chamagne": {Input: 8, Compute: 504, Output: 3},
		"cabestan": {Input: 8, Compute: 231, Output: 3},
		"artimon":  {Input: 8, Compute: 53, Output: 2},
		"pulney":   {Input: 7, Compute: 40, Output: 2},
	},
}

// wasteCPUCosts holds Table 4 verbatim: costs[param][server] in seconds.
var wasteCPUCosts = map[int]map[string]Cost{
	200: {
		"valette":   {Input: 0.08, Compute: 91.81, Output: 0.03},
		"spinnaker": {Input: 0.09, Compute: 16, Output: 0.05},
		"cabestan":  {Input: 0.1, Compute: 74.86, Output: 0.03},
		"artimon":   {Input: 0.12, Compute: 17.1, Output: 0.03},
	},
	400: {
		"valette":   {Input: 0.08, Compute: 182.52, Output: 0.03},
		"spinnaker": {Input: 0.14, Compute: 30.6, Output: 0.06},
		"cabestan":  {Input: 0.09, Compute: 148.48, Output: 0.03},
		"artimon":   {Input: 0.13, Compute: 33.2, Output: 0.03},
	},
	600: {
		"valette":   {Input: 0.13, Compute: 273.28, Output: 0.03},
		"spinnaker": {Input: 0.09, Compute: 45.6, Output: 0.05},
		"cabestan":  {Input: 0.08, Compute: 222.26, Output: 0.03},
		"artimon":   {Input: 0.14, Compute: 49.4, Output: 0.03},
	},
}

// tableSpecs builds the one shared Spec per variant of a paper problem.
// The schedulers index a spec by pointer, so every task of a type must
// carry the same one, including tasks decoded off the wire (Resolve).
func tableSpecs(problem string, costs map[int]map[string]Cost, memory map[int]float64) map[int]*Spec {
	specs := make(map[int]*Spec, len(costs))
	for variant, on := range costs {
		specs[variant] = &Spec{Problem: problem, Variant: variant, CostOn: on, MemoryMB: memory[variant]}
	}
	return specs
}

var (
	matmulSpecs   = tableSpecs("matmul", matmulCosts, matmulMemory)
	wasteCPUSpecs = tableSpecs("wastecpu", wasteCPUCosts, nil)
)

// Matmul returns the Spec for a square matrix multiplication of the
// given size (one of MatmulSizes), the same pointer on every call. It
// panics on an unknown size, which indicates a programming error in
// experiment setup.
func Matmul(size int) *Spec {
	spec, ok := matmulSpecs[size]
	if !ok {
		panic("task: unknown matmul size")
	}
	return spec
}

// WasteCPU returns the Spec for a waste-cpu task with the given
// parameter (one of WasteCPUParams), the same pointer on every call. It
// panics on an unknown parameter.
func WasteCPU(param int) *Spec {
	spec, ok := wasteCPUSpecs[param]
	if !ok {
		panic("task: unknown waste-cpu parameter")
	}
	return spec
}

// MatmulSpecs returns the three matmul specs in Table 3 order.
func MatmulSpecs() []*Spec {
	specs := make([]*Spec, 0, len(MatmulSizes))
	for _, s := range MatmulSizes {
		specs = append(specs, Matmul(s))
	}
	return specs
}

// Resolve returns the Spec for a (problem, variant) pair as transmitted
// over the wire by the live runtime ("matmul"/"wastecpu" with their
// Table 3/4 variants).
func Resolve(problem string, variant int) (*Spec, error) {
	switch problem {
	case "matmul":
		if _, ok := matmulCosts[variant]; !ok {
			return nil, fmt.Errorf("task: unknown matmul size %d", variant)
		}
		return Matmul(variant), nil
	case "wastecpu":
		if _, ok := wasteCPUCosts[variant]; !ok {
			return nil, fmt.Errorf("task: unknown waste-cpu parameter %d", variant)
		}
		return WasteCPU(variant), nil
	case "synthetic":
		family, n := variant/syntheticPoolStride, variant%syntheticPoolStride
		if family < 0 || family >= len(syntheticBases) || n <= 0 {
			return nil, fmt.Errorf("task: bad synthetic variant %d", variant)
		}
		return Synthetic(family, n), nil
	default:
		return nil, fmt.Errorf("task: unknown problem %q", problem)
	}
}

// syntheticBases are the per-family base compute costs (seconds) of
// the synthetic benchmark problem.
var syntheticBases = [...]float64{40, 80, 160}

// syntheticPoolStride packs (family, pool size) into one Variant:
// Variant = family*syntheticPoolStride + n.
const syntheticPoolStride = 1_000_000

var (
	synthMu    sync.Mutex
	synthCache = map[int]*Spec{}
)

// Synthetic returns the registry-resolvable synthetic benchmark Spec:
// family selects the base compute cost (40/80/160s), and the task is
// solvable on a pool of n servers named "sv00".."sv<n-1>" with mildly
// heterogeneous costs. Unlike the paper tables, the cost map is
// derived from (family, n) alone, both of which the Variant encodes —
// so the spec reconstructs bit-identically on the far side of a wire
// from (problem, variant), at any pool size. Specs are memoized and
// shared: a member resolving the same variant on every request must
// not rebuild an n-entry cost map per decision.
func Synthetic(family, n int) *Spec {
	if family < 0 || family >= len(syntheticBases) || n <= 0 || n >= syntheticPoolStride {
		panic("task: bad synthetic spec parameters")
	}
	variant := family*syntheticPoolStride + n
	synthMu.Lock()
	defer synthMu.Unlock()
	if s, ok := synthCache[variant]; ok {
		return s
	}
	base := syntheticBases[family]
	costs := make(map[string]Cost, n)
	for i := 0; i < n; i++ {
		f := 1 + 0.04*float64(i%11)
		costs[fmt.Sprintf("sv%02d", i)] = Cost{Input: 0.5 * f, Compute: base * f, Output: 0.2 * f}
	}
	s := &Spec{Problem: "synthetic", Variant: variant, CostOn: costs}
	synthCache[variant] = s
	return s
}

// WasteCPUSpecs returns the three waste-cpu specs in Table 4 order.
func WasteCPUSpecs() []*Spec {
	specs := make([]*Spec, 0, len(WasteCPUParams))
	for _, p := range WasteCPUParams {
		specs = append(specs, WasteCPU(p))
	}
	return specs
}
