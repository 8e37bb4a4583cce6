package plr

import (
	"math/rand"
	"testing"
)

func benchPoints(n int) []Point {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 0, n)
	x, y := int64(0), int64(0)
	for i := 0; i < n; i++ {
		x += 1 + rng.Int63n(3)
		y++
		pts = append(pts, Point{X: x, Y: y})
	}
	return pts
}

func BenchmarkFit256(b *testing.B) {
	pts := benchPoints(256)
	for _, gamma := range []float64{0, 4} {
		name := "gamma0"
		if gamma > 0 {
			name = "gamma4"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				FitAppend(nil, pts, gamma, 0, 1, 255)
			}
		})
	}
}
