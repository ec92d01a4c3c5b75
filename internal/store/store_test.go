package store

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		s    string
	}{
		{Null(), KindNull, "NULL"},
		{Int(42), KindInt, "42"},
		{Float(2.5), KindFloat, "2.5"},
		{String_("hi"), KindString, `"hi"`},
		{Bool(true), KindBool, "true"},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("kind = %v, want %v", c.v.Kind, c.kind)
		}
		if c.v.String() != c.s {
			t.Errorf("String() = %q, want %q", c.v.String(), c.s)
		}
	}
	ts := time.Date(2022, 3, 29, 0, 0, 0, 0, time.UTC)
	if Time(ts).String() != "2022-03-29T00:00:00Z" {
		t.Errorf("time string = %q", Time(ts).String())
	}
}

func TestValueNumericCrossKind(t *testing.T) {
	if !Int(3).Equal(Float(3)) {
		t.Error("Int(3) should equal Float(3)")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("Int(3) should not equal Float(3.5)")
	}
	c, err := Int(2).Compare(Float(2.5))
	if err != nil || c != -1 {
		t.Errorf("Compare(2, 2.5) = %d, %v", c, err)
	}
	if _, err := String_("a").Compare(Int(1)); err == nil {
		t.Error("string vs int comparison should error")
	}
	if _, err := Null().Compare(Null()); err == nil {
		t.Error("NULL comparison should error")
	}
}

func TestValueConversions(t *testing.T) {
	if f, err := Int(7).AsFloat(); err != nil || f != 7 {
		t.Errorf("AsFloat(Int 7) = %v, %v", f, err)
	}
	if _, err := String_("x").AsFloat(); err == nil {
		t.Error("AsFloat(string) should error")
	}
}

func TestValueCompareOrderings(t *testing.T) {
	if c, _ := String_("a").Compare(String_("b")); c != -1 {
		t.Error("string order")
	}
	if c, _ := Bool(false).Compare(Bool(true)); c != -1 {
		t.Error("bool order")
	}
	early := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	late := early.Add(time.Hour)
	if c, _ := Time(early).Compare(Time(late)); c != -1 {
		t.Error("time order")
	}
	if c, _ := Time(late).Compare(Time(early)); c != 1 {
		t.Error("time reverse order")
	}
	if c, _ := Time(early).Compare(Time(early)); c != 0 {
		t.Error("time equality")
	}
}

func TestKVPutGetOverwrite(t *testing.T) {
	kv := NewKV()
	if _, err := kv.Get("a"); err != ErrNotFound {
		t.Fatalf("get absent = %v, want ErrNotFound", err)
	}
	kv.Put("a", []byte("1"))
	got, err := kv.Get("a")
	if err != nil || string(got) != "1" {
		t.Fatalf("get = %q, %v", got, err)
	}
	kv.Put("a", []byte("2"))
	got, _ = kv.Get("a")
	if string(got) != "2" {
		t.Fatalf("after overwrite get = %q", got)
	}
	if _, err := kv.Get("b"); err != ErrNotFound {
		t.Fatalf("get of an absent key = %v", err)
	}
}

func TestKVValueCopied(t *testing.T) {
	kv := NewKV()
	buf := []byte("abc")
	kv.Put("k", buf)
	buf[0] = 'X'
	got, _ := kv.Get("k")
	if string(got) != "abc" {
		t.Fatalf("stored value aliased caller buffer: %q", got)
	}
	got[0] = 'Y'
	again, _ := kv.Get("k")
	if string(again) != "abc" {
		t.Fatalf("returned value aliased store: %q", again)
	}
}

func TestKVRangeOrderAndEarlyStop(t *testing.T) {
	kv := NewKV()
	for _, k := range []string{"b", "a", "c"} {
		kv.Put(k, []byte(k))
	}
	var seen []string
	kv.Range(func(k string, v []byte) bool {
		seen = append(seen, k)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != "a" || seen[1] != "b" {
		t.Fatalf("range order/stop = %v", seen)
	}
}

func TestKVConcurrentAccess(t *testing.T) {
	kv := NewKV()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%d", i%10)
				kv.Put(key, []byte{byte(g), byte(i)})
				_, _ = kv.Get(key)
				_ = kv.Keys()
			}
		}(g)
	}
	wg.Wait()
	if keys := kv.Keys(); len(keys) != 10 {
		t.Fatalf("keys = %v, want k0..k9", keys)
	}
}

var testSchema = MustSchema(
	Column{Name: "worker", Kind: KindString},
	Column{Name: "hours", Kind: KindFloat},
	Column{Name: "week", Kind: KindInt},
)

func TestSchemaValidation(t *testing.T) {
	ok := Row{"worker": String_("w1"), "hours": Float(12), "week": Int(3)}
	if err := testSchema.Validate(ok); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	if err := testSchema.Validate(Row{"worker": String_("w1"), "hours": Float(12)}); err == nil {
		t.Fatal("missing column accepted")
	}
	bad := Row{"worker": String_("w1"), "hours": String_("12"), "week": Int(3)}
	if err := testSchema.Validate(bad); err == nil {
		t.Fatal("wrong kind accepted")
	}
	extra := Row{"worker": String_("w1"), "hours": Float(1), "week": Int(3), "zzz": Int(1)}
	if err := testSchema.Validate(extra); err == nil {
		t.Fatal("unknown column accepted")
	}
	withNull := Row{"worker": Null(), "hours": Float(1), "week": Int(3)}
	if err := testSchema.Validate(withNull); err != nil {
		t.Fatalf("NULL should be allowed: %v", err)
	}
}

func TestSchemaConstructionErrors(t *testing.T) {
	if _, err := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "a", Kind: KindInt}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := NewSchema(Column{Name: "", Kind: KindInt}); err == nil {
		t.Fatal("empty column name accepted")
	}
}

func TestTableUpsertCopiesAndReplaces(t *testing.T) {
	tbl := NewTable("tasks", testSchema)
	row := Row{"worker": String_("w1"), "hours": Float(5), "week": Int(1)}
	if err := tbl.Upsert("t1", row); err != nil {
		t.Fatal(err)
	}
	row["hours"] = Float(99) // mutate caller's row; table must hold a copy
	if _, got := scan(tbl, "", Value{}); got[0]["hours"].F != 5 {
		t.Fatalf("table aliased caller row: hours = %v", got[0]["hours"])
	}
	if err := tbl.Upsert("t1", Row{"worker": String_("w1"), "hours": Float(8), "week": Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, got := scan(tbl, "", Value{}); len(got) != 1 || got[0]["hours"].F != 8 || len(tbl.rows) != 1 {
		t.Fatalf("after replace: rows %v, len %d", got, len(tbl.rows))
	}
}

func TestTableRejectsBadRows(t *testing.T) {
	tbl := NewTable("tasks", testSchema)
	if err := tbl.Upsert("t1", Row{"worker": String_("w")}); err == nil {
		t.Fatal("incomplete row accepted")
	}
	if len(tbl.rows) != 0 {
		t.Fatal("failed upsert stored a row")
	}
}

// scan returns the keys and rows Scan (col == "") or ScanEq(col, v)
// visits.
func scan(tbl *Table, col string, v Value) (keys []string, rows []Row) {
	fn := func(k string, r Row) bool {
		keys, rows = append(keys, k), append(rows, r)
		return true
	}
	if col == "" {
		tbl.Scan(fn)
	} else {
		tbl.ScanEq(col, v, fn)
	}
	return keys, rows
}

func scanKeys(tbl *Table, col string, v Value) []string {
	keys, _ := scan(tbl, col, v)
	return keys
}

func TestTableScanAndScanEq(t *testing.T) {
	tbl := NewTable("tasks", testSchema)
	put := func(key, worker string, week int64) {
		t.Helper()
		w := String_(worker)
		if worker == "" {
			w = Null()
		}
		if err := tbl.Upsert(key, Row{"worker": w, "hours": Float(1), "week": Int(week)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 4; i >= 0; i-- { // out of key order: buckets and scans sort
		put(fmt.Sprintf("t%d", i), fmt.Sprintf("w%d", i%2), 1)
	}
	eq := func(got []string, want ...string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
	eq(scanKeys(tbl, "", Value{}), "t0", "t1", "t2", "t3", "t4")
	eq(scanKeys(tbl, "worker", String_("w0")), "t0", "t2", "t4") // builds the index
	// Upsert keeps a built index: a key moves, arrives, leaves for NULL.
	put("t2", "w1", 1)
	put("t5", "w0", 2)
	put("t0", "", 1)
	eq(scanKeys(tbl, "worker", String_("w0")), "t4", "t5")
	eq(scanKeys(tbl, "worker", String_("w1")), "t1", "t2", "t3")
	eq(scanKeys(tbl, "worker", String_("nobody")))
	eq(scanKeys(tbl, "week", Int(2)), "t5")
	// Anything the index cannot answer exactly visits every row.
	all := []string{"t0", "t1", "t2", "t3", "t4", "t5"}
	eq(scanKeys(tbl, "worker", Null()), all...)
	eq(scanKeys(tbl, "week", Float(2)), all...)
	eq(scanKeys(tbl, "hours", Float(1)), all...)
	eq(scanKeys(tbl, "nope", Int(1)), all...)
	// Early stop.
	n := 0
	tbl.ScanEq("worker", String_("w1"), func(string, Row) bool { n++; return false })
	if n != 1 {
		t.Fatalf("ScanEq ran fn %d times after a false", n)
	}
}

// A callback may read the table it scans: the lock is not held around fn.
func TestTableScanEqReentrant(t *testing.T) {
	tbl := NewTable("tasks", testSchema)
	for i := 0; i < 4; i++ {
		if err := tbl.Upsert(fmt.Sprint(i), Row{"worker": String_("w"), "hours": Float(1), "week": Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	inner := 0
	tbl.ScanEq("worker", String_("w"), func(string, Row) bool {
		inner += len(scanKeys(tbl, "worker", String_("w")))
		return tbl.Upsert("x", Row{"worker": String_("v"), "hours": Float(1), "week": Int(1)}) == nil
	})
	if inner != 16 {
		t.Fatalf("nested probes saw %d rows, want 16", inner)
	}
}

func BenchmarkKVPut(b *testing.B) {
	kv := NewKV()
	val := []byte("value-of-reasonable-length-for-a-row")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.Put(fmt.Sprintf("key-%d", i%1024), val)
	}
}

func BenchmarkKVGet(b *testing.B) {
	kv := NewKV()
	val := []byte("value-of-reasonable-length-for-a-row")
	for i := 0; i < 1024; i++ {
		kv.Put(fmt.Sprintf("key-%d", i), val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kv.Get(fmt.Sprintf("key-%d", i%1024)); err != nil {
			b.Fatal(err)
		}
	}
}

// Writers and probers share a table: the first probes race to build the
// index, and every probe sees whole buckets while rows move between them.
func TestTableConcurrentUpsertAndScanEq(t *testing.T) {
	tbl := NewTable("tasks", testSchema)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w := fmt.Sprintf("w%d", (g+i)%3)
				if err := tbl.Upsert(fmt.Sprintf("k%d", i%50), Row{"worker": String_(w), "hours": Float(1), "week": Int(int64(g))}); err != nil {
					t.Error(err)
					return
				}
				tbl.ScanEq("worker", String_(w), func(_ string, r Row) bool {
					if r["worker"].S != w {
						t.Errorf("probe of %s visited a row of %s", w, r["worker"].S)
					}
					return true
				})
			}
		}(g)
	}
	wg.Wait()
	if n := len(scanKeys(tbl, "worker", String_("w0"))) + len(scanKeys(tbl, "worker", String_("w1"))) + len(scanKeys(tbl, "worker", String_("w2"))); n != 50 {
		t.Fatalf("buckets hold %d keys, want 50", n)
	}
}

// Scan keeps the sorted keys it built until Upsert adds a key. Every scan
// must still see exactly the table's keys, in order, with their latest
// rows, whether the upserts between scans add keys at either end or
// between two existing ones, or only replace rows; and a scan whose fn
// adds a key keeps the view it began with.
func TestTableScanSeesEveryUpsert(t *testing.T) {
	tbl := NewTable("tasks", testSchema)
	want := map[string]int64{}
	put := func(key string, week int64) {
		t.Helper()
		if err := tbl.Upsert(key, Row{"worker": String_("w"), "hours": Float(1), "week": Int(week)}); err != nil {
			t.Fatal(err)
		}
		want[key] = week
	}
	check := func(step string) {
		t.Helper()
		keys, rows := scan(tbl, "", Value{})
		wantKeys := make([]string, 0, len(want))
		for k := range want {
			wantKeys = append(wantKeys, k)
		}
		slices.Sort(wantKeys)
		if !slices.Equal(keys, wantKeys) {
			t.Fatalf("%s: Scan keys = %v, want %v", step, keys, wantKeys)
		}
		for i, k := range keys {
			if rows[i]["week"].I != want[k] {
				t.Fatalf("%s: Scan row %s has week %d, want %d", step, k, rows[i]["week"].I, want[k])
			}
		}
	}
	check("empty")
	put("m", 1)
	put("c", 2)
	check("two keys")
	put("m", 3) // existing key: the sorted keys stay
	check("replace")
	put("f", 4) // between c and m
	check("between")
	put("a", 5) // before every key
	put("z", 6) // after every key
	check("ends")
	put("c", 7)
	put("z", 8)
	check("replace twice")

	// fn adds a key between two it has not reached yet: this scan keeps
	// its view, the next one sees the new key.
	var seen []string
	tbl.Scan(func(key string, _ Row) bool {
		seen = append(seen, key)
		if key == "c" {
			put("d", 9)
			put("g", 10)
		}
		return true
	})
	if want := []string{"a", "c", "f", "m", "z"}; !slices.Equal(seen, want) {
		t.Fatalf("scan that added keys visited %v, want its starting view %v", seen, want)
	}
	check("after the scan that added keys")
}

// Writers that add keys and replace rows share a table with full scans:
// each scan sees its keys in strict order, and the last one every key.
func TestTableConcurrentUpsertAndScan(t *testing.T) {
	tbl := NewTable("tasks", testSchema)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d-%d", g, i%50)
				if err := tbl.Upsert(key, Row{"worker": String_("w"), "hours": Float(1), "week": Int(int64(i))}); err != nil {
					t.Error(err)
					return
				}
				last := ""
				tbl.Scan(func(k string, _ Row) bool {
					if k <= last {
						t.Errorf("scan visited %q after %q", k, last)
					}
					last = k
					return true
				})
			}
		}(g)
	}
	wg.Wait()
	if n := len(scanKeys(tbl, "", Value{})); n != 200 {
		t.Fatalf("Scan visits %d keys, want 200", n)
	}
}
