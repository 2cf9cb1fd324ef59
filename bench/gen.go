package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"mmdb"
)

// class is a statement class; its name indexes the per-class metrics.
type class int

const (
	clPoint class = iota
	clFetch
	clTiny
	clJoin
	clGroup
	clTopK
	clInsert
	clDelete
	numClasses
)

func (c class) String() string { return sqlClasses[c] }

// stmt is one generated statement and what the oracle needs to check
// its reply. The engine sees only SQL.
type stmt struct {
	Class class
	SQL   string
	A, B  int64 // oracle arguments: key(s) or threshold
}

const (
	deptSize   = 100 // emp rows per dept, as mmdserver -demo
	salarySpan = 50
	amountSpan = 1_000_000
	topKLimit  = 20
)

// dataset is the generator's own copy of what the tables hold — the
// oracle every reply is checked against. emp and dept are the
// deterministic mmdserver -demo contents; sale is seeded.
type dataset struct {
	N, ND int // emp rows, dept rows

	SaleEmp    []int64 // sale i+1's emp
	SaleAmount []int64 // sale i+1's amount
	amountAsc  []int64 // sale amounts ascending
	idSumAsc   []int64 // idSumAsc[k] = sum of the ids of the k cheapest sales
}

func empDept(nd int, id int64) int64 { return (id-1)%int64(nd) + 1 }
func empSalary(id int64) int64       { return 40000 + 1000*((id-1)%salarySpan) }
func deptBudget(id int64) int64      { return 1000 * id }

func newDataset(n int, withSale bool, seed int64) *dataset {
	d := &dataset{N: n, ND: n / deptSize}
	if d.ND < 1 {
		d.ND = 1
	}
	if !withSale {
		return d
	}
	rng := rand.New(rand.NewSource(seed))
	d.SaleEmp = make([]int64, n)
	d.SaleAmount = make([]int64, n)
	order := make([]int, n)
	for i := range order {
		d.SaleEmp[i] = 1 + rng.Int63n(int64(n))
		d.SaleAmount[i] = rng.Int63n(amountSpan)
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return d.SaleAmount[order[a]] < d.SaleAmount[order[b]] })
	d.amountAsc = make([]int64, n)
	d.idSumAsc = make([]int64, n+1)
	for k, i := range order {
		d.amountAsc[k] = d.SaleAmount[i]
		d.idSumAsc[k+1] = d.idSumAsc[k] + int64(i+1)
	}
	return d
}

// userBytes is the size of the loaded rows in the engine's fixed-width
// encoding: the denominator of mem_amp.
func (d *dataset) userBytes() int64 {
	b := int64(d.N)*24 + int64(d.ND)*16
	if d.SaleEmp != nil {
		b += int64(d.N) * 24
	}
	return b
}

// below counts the sales with amount < a.
func (d *dataset) below(a int64) int {
	return sort.Search(len(d.amountAsc), func(i int) bool { return d.amountAsc[i] >= a })
}

// mix names a client's statement stream.
type mix int

const (
	mixPointRead mix = iota // 80% point, 10% fetch, 10% tiny
	mixAnalytic             // join, group, topk round-robin
	mixWriter               // insert, insert, delete the two
	mixPoint                // point only
)

// cycle is how many statements return the tables to their loaded
// state; a client stops only on a cycle boundary.
func (m mix) cycle() int {
	if m == mixWriter {
		return 3
	}
	return 1
}

// stream is one client's statement sequence: a pure function of
// (mix, dataset, seed, client), so equal seeds replay identical text.
type stream struct {
	mix    mix
	d      *dataset
	rng    *rand.Rand
	client int
	i      int
	fresh  int64    // next unused emp id
	last   [2]int64 // the writer's two live inserts
}

func newStream(m mix, d *dataset, seed int64, client int) *stream {
	return &stream{
		mix:    m,
		d:      d,
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1)),
		client: client,
		fresh:  int64(d.N) + 1,
	}
}

func (s *stream) next() stmt {
	i := s.i
	s.i++
	switch s.mix {
	case mixPointRead:
		switch r := s.rng.Intn(100); {
		case r < 80:
			return s.point()
		case r < 90:
			return s.fetch()
		default:
			return s.tiny()
		}
	case mixAnalytic:
		// Offset by client so the two clients are not on the same
		// operator at the same moment.
		switch (i + s.client) % 3 {
		case 0:
			return s.join()
		case 1:
			return s.group()
		default:
			return s.topK()
		}
	case mixWriter:
		if i%3 < 2 {
			return s.insert(i % 3)
		}
		return stmt{
			Class: clDelete,
			SQL:   "DELETE FROM emp WHERE id = " + strconv.FormatInt(s.last[0], 10) + " OR id = " + strconv.FormatInt(s.last[1], 10),
			A:     s.last[0], B: s.last[1],
		}
	default:
		return s.point()
	}
}

func (s *stream) point() stmt {
	k := 1 + s.rng.Int63n(int64(s.d.N))
	return stmt{Class: clPoint, SQL: "SELECT id, salary FROM emp WHERE id = " + strconv.FormatInt(k, 10), A: k}
}

func (s *stream) fetch() stmt {
	k := 1 + s.rng.Int63n(int64(s.d.ND))
	return stmt{Class: clFetch, SQL: "SELECT * FROM emp WHERE dept = " + strconv.FormatInt(k, 10), A: k}
}

func (s *stream) tiny() stmt {
	k := 1 + s.rng.Int63n(int64(s.d.ND))
	return stmt{Class: clTiny, SQL: "SELECT budget FROM dept WHERE id = " + strconv.FormatInt(k, 10), A: k}
}

// join keeps about 1% of the pairs: the threshold is the amount of a
// sale ranked between 0.8% and 1.2% from the cheapest.
func (s *stream) join() stmt {
	n := len(s.d.amountAsc)
	rank := n*8/1000 + s.rng.Intn(n*4/1000+1)
	a := s.d.amountAsc[rank]
	return stmt{
		Class: clJoin,
		SQL:   "SELECT sale.id, emp.salary FROM sale JOIN emp ON sale.emp = emp.id WHERE sale.amount < " + strconv.FormatInt(a, 10),
		A:     a,
	}
}

func (s *stream) group() stmt {
	return stmt{Class: clGroup, SQL: "SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept ORDER BY dept"}
}

// topK's WHERE keeps the 60 to 120 dearest sales, so the sort does the
// work and the limit always fills.
func (s *stream) topK() stmt {
	n := len(s.d.amountAsc)
	keep := 60 + s.rng.Intn(60)
	if keep > n {
		keep = n
	}
	a := s.d.amountAsc[n-keep]
	return stmt{
		Class: clTopK,
		SQL:   "SELECT id, amount FROM sale WHERE amount >= " + strconv.FormatInt(a, 10) + " ORDER BY amount DESC LIMIT " + strconv.Itoa(topKLimit),
		A:     a,
	}
}

func (s *stream) insert(slot int) stmt {
	id := s.fresh
	s.fresh++
	s.last[slot] = id
	dept := 1 + s.rng.Int63n(int64(s.d.ND))
	salary := 40000 + 1000*s.rng.Int63n(salarySpan)
	return stmt{
		Class: clInsert,
		SQL:   fmt.Sprintf("INSERT INTO emp VALUES (%d, %d, %d)", id, dept, salary),
		A:     id,
	}
}

// check compares one reply with what the generator knows the tables
// hold. A nil error means the reply is exactly right.
func (d *dataset) check(st stmt, rows [][]mmdb.Value, affected int64) error {
	want := func(n int) error {
		if len(rows) != n {
			return fmt.Errorf("%s: got %d rows, want %d", st.Class, len(rows), n)
		}
		return nil
	}
	switch st.Class {
	case clPoint:
		if err := want(1); err != nil {
			return err
		}
		if rows[0][0].I != st.A || rows[0][1].I != empSalary(st.A) {
			return fmt.Errorf("point %d: got (%d, %d), want salary %d", st.A, rows[0][0].I, rows[0][1].I, empSalary(st.A))
		}
	case clFetch:
		// The reader of write_mix never fetches, so the dept holds
		// exactly its loaded rows.
		if err := want(d.N / d.ND); err != nil {
			return err
		}
		for _, r := range rows {
			if r[1].I != st.A || empDept(d.ND, r[0].I) != st.A || r[2].I != empSalary(r[0].I) {
				return fmt.Errorf("fetch dept %d: unexpected row (%d, %d, %d)", st.A, r[0].I, r[1].I, r[2].I)
			}
		}
	case clTiny:
		if err := want(1); err != nil {
			return err
		}
		if rows[0][0].I != deptBudget(st.A) {
			return fmt.Errorf("tiny %d: got budget %d, want %d", st.A, rows[0][0].I, deptBudget(st.A))
		}
	case clJoin:
		// Every sale has exactly one emp, so the join keeps the sales
		// below the threshold.
		k := d.below(st.A)
		if err := want(k); err != nil {
			return err
		}
		var ids int64
		for _, r := range rows {
			ids += r[0].I
			if r[1].I != empSalary(d.SaleEmp[r[0].I-1]) {
				return fmt.Errorf("join: sale %d paired with salary %d", r[0].I, r[1].I)
			}
		}
		if ids != d.idSumAsc[k] {
			return fmt.Errorf("join: sale ids sum to %d, want %d", ids, d.idSumAsc[k])
		}
	case clGroup:
		if err := want(d.ND); err != nil {
			return err
		}
		var count int64
		for i, r := range rows {
			if r[0].I != int64(i+1) {
				return fmt.Errorf("group: row %d is dept %d", i, r[0].I)
			}
			count += r[1].I
		}
		if count != int64(d.N) {
			return fmt.Errorf("group: counts sum to %d, want %d", count, d.N)
		}
	case clTopK:
		if err := want(topKLimit); err != nil {
			return err
		}
		n := len(d.amountAsc)
		for i, r := range rows {
			if r[1].I != d.amountAsc[n-1-i] {
				return fmt.Errorf("topk: row %d has amount %d, want %d", i, r[1].I, d.amountAsc[n-1-i])
			}
			if d.SaleAmount[r[0].I-1] != r[1].I {
				return fmt.Errorf("topk: sale %d does not have amount %d", r[0].I, r[1].I)
			}
		}
	case clInsert:
		if affected != 1 {
			return fmt.Errorf("insert %d: affected %d, want 1", st.A, affected)
		}
	case clDelete:
		if affected != 2 {
			return fmt.Errorf("delete %d,%d: affected %d, want 2", st.A, st.B, affected)
		}
	}
	return nil
}
