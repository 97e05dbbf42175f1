package main

import "testing"

func TestDigestIgnoresRowAndColumnOrder(t *testing.T) {
	cols := []string{"R2.a", "R1.a", "R1.jh"}
	rows := [][]int64{{1, 2, 3}, {4, 5, 6}, {4, 5, 6}, {7, 8, 9}}
	// The same answer with columns alphabetized and rows reversed.
	cols2 := []string{"R1.a", "R1.jh", "R2.a"}
	rows2 := [][]int64{{8, 9, 7}, {5, 6, 4}, {5, 6, 4}, {2, 3, 1}}
	if a, b := digestRows(cols, rows), digestRows(cols2, rows2); a != b {
		t.Fatalf("permuted answer digests differ: %+v vs %+v", a, b)
	}
}

func TestDigestSeesMultisetDifferences(t *testing.T) {
	cols := []string{"x", "y"}
	base := digestRows(cols, [][]int64{{1, 1}, {1, 1}, {2, 2}})
	for name, rows := range map[string][][]int64{
		"multiplicity moved": {{1, 1}, {2, 2}, {2, 2}},
		"row missing":        {{1, 1}, {2, 2}},
		"row extra":          {{1, 1}, {1, 1}, {2, 2}, {3, 3}},
		"value changed":      {{1, 1}, {1, 1}, {2, 3}},
		"empty":              nil,
	} {
		if digestRows(cols, rows) == base {
			t.Errorf("%s: digest unchanged", name)
		}
	}
	if digestRows([]string{"x", "z"}, [][]int64{{1, 1}, {1, 1}, {2, 2}}) == base {
		t.Error("renamed column: digest unchanged")
	}
	// Values that swap between columns of the same row are a different
	// answer.
	if digestRows(cols, [][]int64{{1, 2}}) == digestRows(cols, [][]int64{{2, 1}}) {
		t.Error("swapped values: digest unchanged")
	}
}

func TestDigestOfEmptyAnswer(t *testing.T) {
	a := digestRows([]string{"x"}, nil)
	if a.Rows != 0 || a.Sum != 0 || a.Mix != 0 {
		t.Fatalf("empty answer digest %+v", a)
	}
}
