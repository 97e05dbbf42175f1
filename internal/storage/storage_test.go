package storage

import (
	"testing"
)

func fill(t *Table, n int) {
	for i := 0; i < n; i++ {
		t.Append(Row{int64(i), int64(i * 2)})
	}
}

func TestTablePaging(t *testing.T) {
	// 512-byte records: 4 rows per page.
	tab := NewTable("R", 512)
	if tab.RowsPerPage() != 4 {
		t.Fatalf("RowsPerPage = %d, want 4", tab.RowsPerPage())
	}
	fill(tab, 10)
	if tab.NumRows() != 10 {
		t.Errorf("NumRows = %d", tab.NumRows())
	}
	if tab.NumPages() != 3 {
		t.Errorf("NumPages = %d, want 3", tab.NumPages())
	}
}

func TestOversizedRecords(t *testing.T) {
	tab := NewTable("wide", 4096)
	fill(tab, 3)
	if tab.RowsPerPage() != 1 || tab.NumPages() != 3 {
		t.Errorf("oversized records: rpp=%d pages=%d", tab.RowsPerPage(), tab.NumPages())
	}
}

func TestAppendGetRoundTrip(t *testing.T) {
	tab := NewTable("R", 512)
	var rids []RID
	for i := 0; i < 25; i++ {
		rids = append(rids, tab.Append(Row{int64(i)}))
	}
	for i, rid := range rids {
		row, err := tab.Get(rid)
		if err != nil {
			t.Fatalf("Get(%v): %v", rid, err)
		}
		if row[0] != int64(i) {
			t.Errorf("Get(%v) = %v, want %d", rid, row, i)
		}
	}
	if _, err := tab.Get(RID{Page: 99, Slot: 0}); err == nil {
		t.Error("Get with invalid page must fail")
	}
	if _, err := tab.Get(RID{Page: 0, Slot: 99}); err == nil {
		t.Error("Get with invalid slot must fail")
	}
}

func TestScanChargesSequentialReads(t *testing.T) {
	tab := NewTable("R", 512)
	fill(tab, 10) // 3 pages
	var acc Accountant
	count := 0
	tab.Scan(&acc, func(Row) bool { count++; return true })
	if count != 10 {
		t.Errorf("scan visited %d rows", count)
	}
	if acc.SeqPageReads() != 3 {
		t.Errorf("SeqPageReads = %d, want 3", acc.SeqPageReads())
	}
	// Early stop after the first row: only the first page is charged.
	acc.Reset()
	tab.Scan(&acc, func(Row) bool { return false })
	if acc.SeqPageReads() != 1 {
		t.Errorf("early-stop SeqPageReads = %d, want 1", acc.SeqPageReads())
	}
}

func TestFetchChargesRandomReads(t *testing.T) {
	tab := NewTable("R", 512)
	fill(tab, 10)
	var acc Accountant
	row, err := tab.Fetch(RID{Page: 1, Slot: 0}, &acc)
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != 4 {
		t.Errorf("Fetch returned %v", row)
	}
	if acc.RandPageReads() != 1 {
		t.Errorf("RandPageReads = %d, want 1", acc.RandPageReads())
	}
	if _, err := tab.Fetch(RID{Page: 9, Slot: 0}, &acc); err == nil {
		t.Error("Fetch of invalid rid must fail")
	}
}

func TestAccountantSecondsAndString(t *testing.T) {
	var acc Accountant
	acc.ReadSeq(10)
	acc.ReadRand(5)
	acc.Write(2)
	acc.Tuples(100)
	got := acc.Seconds(0.001, 0.0025, 0.001, 0.00005)
	want := 10*0.001 + 5*0.0025 + 2*0.001 + 100*0.00005
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("Seconds = %g, want %g", got, want)
	}
	if s := acc.String(); s != "seq=10 rand=5 write=2 tuples=100" {
		t.Errorf("String = %q", s)
	}
	acc.Reset()
	if acc.SeqPageReads() != 0 || acc.TupleOps() != 0 {
		t.Error("Reset did not zero counters")
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	s.AddTable(NewTable("R", 512))
	if _, err := s.Table("R"); err != nil {
		t.Error(err)
	}
	if _, err := s.Table("missing"); err == nil {
		t.Error("unknown table lookup must fail")
	}
}

func TestRowCloneAndConcat(t *testing.T) {
	r := Row{1, 2, 3}
	c := r.Clone()
	c[0] = 99
	if r[0] != 1 {
		t.Error("Clone shares backing array")
	}
	cat := Concat(Row{1, 2}, Row{3})
	if len(cat) != 3 || cat[0] != 1 || cat[2] != 3 {
		t.Errorf("Concat = %v", cat)
	}
	// Concat must not alias its inputs' growth room.
	a := make(Row, 2, 8)
	a[0], a[1] = 1, 2
	cat = Concat(a, Row{3})
	cat[0] = 42
	if a[0] != 1 {
		t.Error("Concat aliases its first input")
	}
}
