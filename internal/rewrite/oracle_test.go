package rewrite_test

import (
	"math/rand"
	"testing"

	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/queries"
	"seqlog/internal/rewrite"
	"seqlog/internal/value"
)

// oracleDraws is how many generated instances every (paper query,
// rewrite) pair must agree on.
const oracleDraws = 200

// oracleInstance draws one flat instance over the query's EDB
// relations, at the arities the program uses them with: up to four
// tuples per relation, every component a path of minLen..maxLen atoms
// over the program's own constants plus two atoms it does not mention.
func oracleInstance(r *rand.Rand, q queries.Query, arities map[string]int, minLen, maxLen int) *instance.Instance {
	alphabet := append(q.Program.Consts(), value.Intern("y"), value.Intern("z"))
	inst := instance.New()
	for _, rel := range q.EDB {
		inst.Ensure(rel, arities[rel])
		if arities[rel] == 0 {
			if r.Intn(2) == 0 {
				inst.AddFact(rel)
			}
			continue
		}
		for n := r.Intn(5); n > 0; n-- {
			t := make(instance.Tuple, arities[rel])
			for c := range t {
				p := make(value.Path, minLen+r.Intn(maxLen-minLen+1))
				for k := range p {
					p[k] = alphabet[r.Intn(len(alphabet))]
				}
				t[c] = p
			}
			inst.Add(rel, t)
		}
	}
	return inst
}

// encodeArity maps a relation through the Lemma 4.1 encoding, the form
// EliminateArity's output stores it in (the identity up to arity one).
func encodeArity(rel *instance.Relation) *instance.Relation {
	if rel.Arity <= 1 {
		return rel
	}
	out := instance.NewRelation(1)
	for _, t := range rel.Tuples() {
		out.Add(instance.Tuple{rewrite.DefaultArityMarkers.EncodeTuplePaths(t)})
	}
	return out
}

// TestRewritesAgreeWithSource is the semantic net under
// rewrites.golden: the golden pins what every rewrite prints on every
// paper query, this pins that what it prints computes the same query.
// For every section of the golden that is not a refusal, source and
// rewritten program are evaluated on oracleDraws generated
// instances over Query.EDB and must produce the same output relation.
// Three rewrites change the representation, and are compared through
// their codecs:
//
//   - EliminateArity stores every IDB relation under the Lemma 4.1
//     encoding, so every IDB relation is compared, encoded;
//   - SimulatePackingDoubled doubles and undoubles inside the program;
//     its output relation is compared as is;
//   - ToClassical is Lemma 5.4: the instances are two-bounded, the
//     rewritten program runs on EncodeTwoBounded of them and its
//     output is read back through DecodeTwoBounded (a nullary output
//     keeps its name and needs no decoding). The lemma's
//     premise — the source derives only paths of length one or two —
//     is checked per instance on the source's own result; an instance
//     that breaks it is replaced by the next draw.
//
// A failure prints the draw it happened on; the generator is seeded per
// pair, so the draw number reproduces it.
func TestRewritesAgreeWithSource(t *testing.T) {
	for _, q := range queries.All() {
		if !q.Terminating {
			continue
		}
		arities, err := q.Program.Arities()
		if err != nil {
			t.Fatal(err)
		}
		src, err := eval.Compile(q.Program)
		if err != nil {
			t.Fatal(err)
		}
		for _, rw := range goldenRewrites[1:] {
			out, err := rw.run(q.Program, q.Output)
			if err != nil {
				continue // a refusal; the golden pins its wording
			}
			t.Run(q.Name+"/"+rw.name, func(t *testing.T) {
				dst, err := eval.Compile(out)
				if err != nil {
					t.Fatalf("rewritten program does not compile: %v\n%s", err, out)
				}
				compare := []string{q.Output}
				if rw.name == "EliminateArity" {
					compare = q.Program.IDBNames()
				}
				classical := rw.name == "ToClassical"
				minLen, maxLen := 0, 4
				if classical {
					minLen, maxLen = 1, 2
				}
				r := rand.New(rand.NewSource(22))
				agreed := 0
				for draw := 0; agreed < oracleDraws; draw++ {
					if draw >= 50*oracleDraws {
						t.Fatalf("only %d of %d draws met Lemma 5.4's premise", agreed, draw)
					}
					edb := oracleInstance(r, q, arities, minLen, maxLen)
					input := edb
					if classical {
						full, err := src.Eval(edb, eval.Limits{})
						if err != nil {
							t.Fatalf("draw %d: source: %v\nEDB:\n%s", draw, err, edb)
						}
						if !rewrite.TwoBounded(full) {
							continue
						}
						if input, err = rewrite.EncodeTwoBounded(edb); err != nil {
							t.Fatal(err)
						}
					}
					for _, name := range compare {
						want, err := src.Query(edb, name, eval.Limits{})
						if err != nil {
							t.Fatalf("draw %d: source: %v\nEDB:\n%s", draw, err, edb)
						}
						want = encodeArity(want)
						var got *instance.Relation
						if classical && arities[name] > 0 {
							res, err := dst.Eval(input, eval.Limits{})
							if err != nil {
								t.Fatalf("draw %d: rewritten: %v\nEDB:\n%s", draw, err, input)
							}
							got = rewrite.DecodeTwoBounded(res, name).Relation(name)
						} else if got, err = dst.Query(input, name, eval.Limits{}); err != nil {
							t.Fatalf("draw %d: rewritten: %v\nEDB:\n%s", draw, err, input)
						}
						if !want.Equal(got) {
							t.Fatalf("draw %d: %s differs\nsource:    %v\nrewritten: %v\nEDB:\n%s\nrewritten program:\n%s",
								draw, name, want.Sorted(), got.Sorted(), edb, out)
						}
					}
					agreed++
				}
			})
		}
	}
}
