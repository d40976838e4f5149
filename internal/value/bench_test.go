package value

import "testing"

func benchPath(n int) Path {
	p := make(Path, 0, n)
	for i := 0; i < n; i++ {
		if i%7 == 3 {
			p = append(p, Pack(Repeat("q", 3)))
		} else {
			p = append(p, Intern("abcdefg"[i%7:i%7+1]))
		}
	}
	return p
}

func BenchmarkEqual(b *testing.B) {
	p, q := benchPath(64), benchPath(64)
	for i := 0; i < b.N; i++ {
		if !p.Equal(q) {
			b.Fatal("must be equal")
		}
	}
}

func BenchmarkCompare(b *testing.B) {
	p, q := benchPath(64), benchPath(63)
	for i := 0; i < b.N; i++ {
		if p.Compare(q) == 0 {
			b.Fatal("must differ")
		}
	}
}
