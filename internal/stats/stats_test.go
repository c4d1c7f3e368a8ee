package stats

import (
	"math"
	"math/rand"
	"testing"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLeastSquaresRecovers(t *testing.T) {
	// t = 2*u + 3*v + 5*w exactly.
	rng := rand.New(rand.NewSource(7))
	var rows [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		u, v, w := rng.Float64(), rng.Float64(), rng.Float64()
		rows = append(rows, []float64{u, v, w})
		y = append(y, 2*u+3*v+5*w)
	}
	c, err := LeastSquares(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 5}
	for i := range want {
		if !almost(c[i], want[i], 1e-8) {
			t.Fatalf("c = %v, want %v", c, want)
		}
	}
}

func TestLeastSquaresSingular(t *testing.T) {
	rows := [][]float64{{1, 2}, {2, 4}, {3, 6}} // second column = 2x first
	if _, err := LeastSquares(rows, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected singular-system error")
	}
}

func TestLeastSquaresBadShapes(t *testing.T) {
	if _, err := LeastSquares(nil, nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := LeastSquares([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestSolveLinear(t *testing.T) {
	m := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(m, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x[0], 1, 1e-12) || !almost(x[1], 3, 1e-12) {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestNonNegativeLeastSquares(t *testing.T) {
	// True model has a negative coefficient; NNLS must pin it at 0.
	rng := rand.New(rand.NewSource(11))
	var rows [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		u, v := rng.Float64(), rng.Float64()
		rows = append(rows, []float64{u, v})
		y = append(y, 4*u-0.5*v)
	}
	c, err := NonNegativeLeastSquares(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	if c[1] != 0 {
		t.Fatalf("c[1] = %v, want pinned to 0", c[1])
	}
	if c[0] <= 0 {
		t.Fatalf("c[0] = %v, want positive", c[0])
	}
}

func TestNNLSMatchesLSWhenAllPositive(t *testing.T) {
	rows := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	y := []float64{2, 3, 5}
	ls, _ := LeastSquares(rows, y)
	nnls, err := NonNegativeLeastSquares(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ls {
		if !almost(ls[i], nnls[i], 1e-9) {
			t.Fatalf("NNLS %v != LS %v", nnls, ls)
		}
	}
}
