package mmdb

// pinnedSelects holds, in selectStatements order, what
// TestSQLSelectLoweringPinned printed at commit 96883dc, the parent of the
// one-lowering change; regenerate an entry only with a PR that says which
// charge moved and why. The join rows were re-pinned when every join
// became a planned one: a filtered two-table join charges its leaf scans
// and its pushed predicates once per row instead of once per joined pair,
// an unfiltered three-table join no longer re-reads its materialized
// output, and a filtered three-table join charges its leaf scans and, now
// that the live grant reaches the planner, spills where it used to overrun
// the 8-page grant. The filtered ORDER BY rows were re-pinned when the
// single-table sort began reading its table's access path: it sorts the
// 299 rows the WHERE keeps, written to a statement-owned copy, instead of
// filtering all 600 after sorting them.
var pinnedSelects = []pinnedSelect{
	{"SELECT id, name FROM emp", 600, "[1 n00]", "[600 n16]", Counters{Comps: 0, Hashes: 0, Moves: 0, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1000000000},
	{"SELECT id, name FROM emp LIMIT 7", 7, "[1 n00]", "[7 n06]", Counters{Comps: 0, Hashes: 0, Moves: 0, Swaps: 0, SeqIOs: 2, RandIOs: 0}, 20000000},
	{"SELECT id, name FROM emp ORDER BY salary", 600, "[1 n00]", "[228 n15]", Counters{Comps: 7371, Hashes: 0, Moves: 0, Swaps: 3631, SeqIOs: 104, RandIOs: 104}, 3879973000},
	{"SELECT id, name FROM emp ORDER BY salary LIMIT 7", 7, "[1 n00]", "[439 n14]", Counters{Comps: 7371, Hashes: 0, Moves: 0, Swaps: 3631, SeqIOs: 104, RandIOs: 104}, 3879973000},
	{"SELECT id, name FROM emp ORDER BY salary DESC", 600, "[228 n15]", "[1 n00]", Counters{Comps: 7371, Hashes: 0, Moves: 0, Swaps: 3631, SeqIOs: 104, RandIOs: 104}, 3879973000},
	{"SELECT id, name FROM emp ORDER BY salary DESC LIMIT 7", 7, "[228 n15]", "[390 n18]", Counters{Comps: 7371, Hashes: 0, Moves: 0, Swaps: 3631, SeqIOs: 104, RandIOs: 104}, 3879973000},
	{"SELECT id, name FROM emp WHERE salary >= 43000 AND id != 17", 299, "[10 n09]", "[600 n16]", Counters{Comps: 1200, Hashes: 0, Moves: 0, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1003600000},
	{"SELECT id, name FROM emp WHERE salary >= 43000 AND id != 17 LIMIT 7", 7, "[10 n09]", "[16 n15]", Counters{Comps: 32, Hashes: 0, Moves: 0, Swaps: 0, SeqIOs: 3, RandIOs: 0}, 30096000},
	{"SELECT id, name FROM emp WHERE salary >= 43000 AND id != 17 ORDER BY salary", 299, "[301 n35]", "[228 n15]", Counters{Comps: 4364, Hashes: 0, Moves: 0, Swaps: 1598, SeqIOs: 153, RandIOs: 53}, 2963972000},
	{"SELECT id, name FROM emp WHERE salary >= 43000 AND id != 17 ORDER BY salary LIMIT 7", 7, "[301 n35]", "[139 n32]", Counters{Comps: 4364, Hashes: 0, Moves: 0, Swaps: 1598, SeqIOs: 153, RandIOs: 53}, 2963972000},
	{"SELECT id, name FROM emp WHERE salary >= 43000 AND id != 17 ORDER BY salary DESC", 299, "[228 n15]", "[301 n35]", Counters{Comps: 4364, Hashes: 0, Moves: 0, Swaps: 1598, SeqIOs: 153, RandIOs: 53}, 2963972000},
	{"SELECT id, name FROM emp WHERE salary >= 43000 AND id != 17 ORDER BY salary DESC LIMIT 7", 7, "[228 n15]", "[390 n18]", Counters{Comps: 4364, Hashes: 0, Moves: 0, Swaps: 1598, SeqIOs: 153, RandIOs: 53}, 2963972000},
	{"SELECT dept FROM emp GROUP BY dept", 7, "[1]", "[7]", Counters{Comps: 593, Hashes: 600, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7319000},
	{"SELECT dept FROM emp GROUP BY dept LIMIT 7", 7, "[1]", "[7]", Counters{Comps: 593, Hashes: 600, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7319000},
	{"SELECT dept FROM emp GROUP BY dept ORDER BY dept", 7, "[1]", "[7]", Counters{Comps: 593, Hashes: 600, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7319000},
	{"SELECT dept FROM emp GROUP BY dept ORDER BY dept LIMIT 7", 7, "[1]", "[7]", Counters{Comps: 593, Hashes: 600, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7319000},
	{"SELECT dept FROM emp GROUP BY dept ORDER BY dept DESC", 7, "[7]", "[1]", Counters{Comps: 593, Hashes: 600, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7319000},
	{"SELECT dept FROM emp GROUP BY dept ORDER BY dept DESC LIMIT 7", 7, "[7]", "[1]", Counters{Comps: 593, Hashes: 600, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7319000},
	{"SELECT dept FROM emp WHERE salary >= 43000 GROUP BY dept", 7, "[1]", "[7]", Counters{Comps: 893, Hashes: 300, Moves: 7, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1005519000},
	{"SELECT dept FROM emp WHERE salary >= 43000 GROUP BY dept LIMIT 7", 7, "[1]", "[7]", Counters{Comps: 893, Hashes: 300, Moves: 7, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1005519000},
	{"SELECT dept FROM emp WHERE salary >= 43000 GROUP BY dept ORDER BY dept", 7, "[1]", "[7]", Counters{Comps: 893, Hashes: 300, Moves: 7, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1005519000},
	{"SELECT dept FROM emp WHERE salary >= 43000 GROUP BY dept ORDER BY dept LIMIT 7", 7, "[1]", "[7]", Counters{Comps: 893, Hashes: 300, Moves: 7, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1005519000},
	{"SELECT dept FROM emp WHERE salary >= 43000 GROUP BY dept ORDER BY dept DESC", 7, "[7]", "[1]", Counters{Comps: 893, Hashes: 300, Moves: 7, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1005519000},
	{"SELECT dept FROM emp WHERE salary >= 43000 GROUP BY dept ORDER BY dept DESC LIMIT 7", 7, "[7]", "[1]", Counters{Comps: 893, Hashes: 300, Moves: 7, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1005519000},
	{"SELECT name FROM emp GROUP BY name", 53, "[n00]", "[n52]", Counters{Comps: 547, Hashes: 820, Moves: 273, Swaps: 0, SeqIOs: 40, RandIOs: 40}, 1414481000},
	{"SELECT name FROM emp GROUP BY name LIMIT 7", 7, "[n00]", "[n06]", Counters{Comps: 547, Hashes: 820, Moves: 273, Swaps: 0, SeqIOs: 40, RandIOs: 40}, 1414481000},
	{"SELECT name FROM emp GROUP BY name ORDER BY name", 53, "[n00]", "[n52]", Counters{Comps: 547, Hashes: 820, Moves: 273, Swaps: 0, SeqIOs: 40, RandIOs: 40}, 1414481000},
	{"SELECT name FROM emp GROUP BY name ORDER BY name LIMIT 7", 7, "[n00]", "[n06]", Counters{Comps: 547, Hashes: 820, Moves: 273, Swaps: 0, SeqIOs: 40, RandIOs: 40}, 1414481000},
	{"SELECT name FROM emp GROUP BY name ORDER BY name DESC", 53, "[n52]", "[n00]", Counters{Comps: 547, Hashes: 820, Moves: 273, Swaps: 0, SeqIOs: 40, RandIOs: 40}, 1414481000},
	{"SELECT name FROM emp GROUP BY name ORDER BY name DESC LIMIT 7", 7, "[n52]", "[n46]", Counters{Comps: 547, Hashes: 820, Moves: 273, Swaps: 0, SeqIOs: 40, RandIOs: 40}, 1414481000},
	{"SELECT name FROM emp WHERE salary >= 43000 GROUP BY name", 53, "[n00]", "[n52]", Counters{Comps: 847, Hashes: 407, Moves: 160, Swaps: 0, SeqIOs: 120, RandIOs: 20}, 1709404000},
	{"SELECT name FROM emp WHERE salary >= 43000 GROUP BY name LIMIT 7", 7, "[n00]", "[n06]", Counters{Comps: 847, Hashes: 407, Moves: 160, Swaps: 0, SeqIOs: 120, RandIOs: 20}, 1709404000},
	{"SELECT name FROM emp WHERE salary >= 43000 GROUP BY name ORDER BY name", 53, "[n00]", "[n52]", Counters{Comps: 847, Hashes: 407, Moves: 160, Swaps: 0, SeqIOs: 120, RandIOs: 20}, 1709404000},
	{"SELECT name FROM emp WHERE salary >= 43000 GROUP BY name ORDER BY name LIMIT 7", 7, "[n00]", "[n06]", Counters{Comps: 847, Hashes: 407, Moves: 160, Swaps: 0, SeqIOs: 120, RandIOs: 20}, 1709404000},
	{"SELECT name FROM emp WHERE salary >= 43000 GROUP BY name ORDER BY name DESC", 53, "[n52]", "[n00]", Counters{Comps: 847, Hashes: 407, Moves: 160, Swaps: 0, SeqIOs: 120, RandIOs: 20}, 1709404000},
	{"SELECT name FROM emp WHERE salary >= 43000 GROUP BY name ORDER BY name DESC LIMIT 7", 7, "[n52]", "[n46]", Counters{Comps: 847, Hashes: 407, Moves: 160, Swaps: 0, SeqIOs: 120, RandIOs: 20}, 1709404000},
	{"SELECT dept, COUNT(*), SUM(salary), AVG(salary) FROM emp GROUP BY dept", 7, "[1 86 3696450 42981.976744186046]", "[7 85 3655000 43000]", Counters{Comps: 593, Hashes: 600, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7319000},
	{"SELECT dept, COUNT(*), SUM(salary), AVG(salary) FROM emp GROUP BY dept LIMIT 7", 7, "[1 86 3696450 42981.976744186046]", "[7 85 3655000 43000]", Counters{Comps: 593, Hashes: 600, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7319000},
	{"SELECT dept, COUNT(*), SUM(salary), AVG(salary) FROM emp GROUP BY dept ORDER BY dept", 7, "[1 86 3696450 42981.976744186046]", "[7 85 3655000 43000]", Counters{Comps: 593, Hashes: 600, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7319000},
	{"SELECT dept, COUNT(*), SUM(salary), AVG(salary) FROM emp GROUP BY dept ORDER BY dept LIMIT 7", 7, "[1 86 3696450 42981.976744186046]", "[7 85 3655000 43000]", Counters{Comps: 593, Hashes: 600, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7319000},
	{"SELECT dept, COUNT(*), SUM(salary), AVG(salary) FROM emp GROUP BY dept ORDER BY dept DESC", 7, "[7 85 3655000 43000]", "[1 86 3696450 42981.976744186046]", Counters{Comps: 593, Hashes: 600, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7319000},
	{"SELECT dept, COUNT(*), SUM(salary), AVG(salary) FROM emp GROUP BY dept ORDER BY dept DESC LIMIT 7", 7, "[7 85 3655000 43000]", "[1 86 3696450 42981.976744186046]", Counters{Comps: 593, Hashes: 600, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7319000},
	{"SELECT dept, COUNT(*), SUM(salary), AVG(salary) FROM emp WHERE salary >= 43000 OR id = 3 GROUP BY dept", 7, "[1 42 1869890 44521.19047619047]", "[7 43 1912410 44474.651162790695]", Counters{Comps: 1494, Hashes: 301, Moves: 7, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1007331000},
	{"SELECT dept, COUNT(*), SUM(salary), AVG(salary) FROM emp WHERE salary >= 43000 OR id = 3 GROUP BY dept LIMIT 7", 7, "[1 42 1869890 44521.19047619047]", "[7 43 1912410 44474.651162790695]", Counters{Comps: 1494, Hashes: 301, Moves: 7, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1007331000},
	{"SELECT dept, COUNT(*), SUM(salary), AVG(salary) FROM emp WHERE salary >= 43000 OR id = 3 GROUP BY dept ORDER BY dept", 7, "[1 42 1869890 44521.19047619047]", "[7 43 1912410 44474.651162790695]", Counters{Comps: 1494, Hashes: 301, Moves: 7, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1007331000},
	{"SELECT dept, COUNT(*), SUM(salary), AVG(salary) FROM emp WHERE salary >= 43000 OR id = 3 GROUP BY dept ORDER BY dept LIMIT 7", 7, "[1 42 1869890 44521.19047619047]", "[7 43 1912410 44474.651162790695]", Counters{Comps: 1494, Hashes: 301, Moves: 7, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1007331000},
	{"SELECT dept, COUNT(*), SUM(salary), AVG(salary) FROM emp WHERE salary >= 43000 OR id = 3 GROUP BY dept ORDER BY dept DESC", 7, "[7 43 1912410 44474.651162790695]", "[1 42 1869890 44521.19047619047]", Counters{Comps: 1494, Hashes: 301, Moves: 7, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1007331000},
	{"SELECT dept, COUNT(*), SUM(salary), AVG(salary) FROM emp WHERE salary >= 43000 OR id = 3 GROUP BY dept ORDER BY dept DESC LIMIT 7", 7, "[7 43 1912410 44474.651162790695]", "[1 42 1869890 44521.19047619047]", Counters{Comps: 1494, Hashes: 301, Moves: 7, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1007331000},
	{"SELECT COUNT(*), SUM(salary), MIN(id), MAX(salary), AVG(id) FROM emp", 1, "[600 25797000 1 45990 300.5]", "[600 25797000 1 45990 300.5]", Counters{Comps: 3000, Hashes: 0, Moves: 0, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1009000000},
	{"SELECT COUNT(*), SUM(salary), MIN(id), MAX(salary), AVG(id) FROM emp LIMIT 7", 1, "[600 25797000 1 45990 300.5]", "[600 25797000 1 45990 300.5]", Counters{Comps: 3000, Hashes: 0, Moves: 0, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1009000000},
	{"SELECT COUNT(*), SUM(salary), MIN(id), MAX(salary), AVG(id) FROM emp WHERE NOT (salary < 43000)", 1, "[300 13348500 10 45990 304.5]", "[300 13348500 10 45990 304.5]", Counters{Comps: 2100, Hashes: 0, Moves: 0, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1006300000},
	{"SELECT COUNT(*), SUM(salary), MIN(id), MAX(salary), AVG(id) FROM emp WHERE NOT (salary < 43000) LIMIT 7", 1, "[300 13348500 10 45990 304.5]", "[300 13348500 10 45990 304.5]", Counters{Comps: 2100, Hashes: 0, Moves: 0, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1006300000},
	{"SELECT emp.id, city FROM emp JOIN dept ON emp.dept = dept.id", 600, "[1 city0]", "[600 city4]", Counters{Comps: 600, Hashes: 607, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7403000},
	{"SELECT emp.id, city FROM emp JOIN dept ON emp.dept = dept.id LIMIT 7", 7, "[1 city0]", "[7 city6]", Counters{Comps: 600, Hashes: 607, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7403000},
	{"SELECT emp.id, city FROM emp JOIN dept ON emp.dept = dept.id ORDER BY emp.id", 600, "[1 city0]", "[600 city4]", Counters{Comps: 600, Hashes: 607, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7403000},
	{"SELECT emp.id, city FROM emp JOIN dept ON emp.dept = dept.id ORDER BY emp.id LIMIT 7", 7, "[1 city0]", "[7 city6]", Counters{Comps: 600, Hashes: 607, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7403000},
	{"SELECT emp.id, city FROM emp JOIN dept ON emp.dept = dept.id ORDER BY emp.id DESC", 600, "[600 city4]", "[1 city0]", Counters{Comps: 600, Hashes: 607, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7403000},
	{"SELECT emp.id, city FROM emp JOIN dept ON emp.dept = dept.id ORDER BY emp.id DESC LIMIT 7", 7, "[600 city4]", "[594 city5]", Counters{Comps: 600, Hashes: 607, Moves: 7, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 7403000},
	{"SELECT emp.id, city FROM emp JOIN dept ON emp.dept = dept.id WHERE salary >= 43000 AND budget > 200", 215, "[10 city2]", "[600 city4]", Counters{Comps: 822, Hashes: 305, Moves: 5, Swaps: 0, SeqIOs: 101, RandIOs: 0}, 1015311000},
	{"SELECT emp.id, city FROM emp JOIN dept ON emp.dept = dept.id WHERE salary >= 43000 AND budget > 200 LIMIT 7", 7, "[10 city2]", "[26 city4]", Counters{Comps: 822, Hashes: 305, Moves: 5, Swaps: 0, SeqIOs: 101, RandIOs: 0}, 1015311000},
	{"SELECT emp.id, city FROM emp JOIN dept ON emp.dept = dept.id WHERE salary >= 43000 AND budget > 200 ORDER BY emp.id", 215, "[10 city2]", "[600 city4]", Counters{Comps: 822, Hashes: 305, Moves: 5, Swaps: 0, SeqIOs: 101, RandIOs: 0}, 1015311000},
	{"SELECT emp.id, city FROM emp JOIN dept ON emp.dept = dept.id WHERE salary >= 43000 AND budget > 200 ORDER BY emp.id LIMIT 7", 7, "[10 city2]", "[26 city4]", Counters{Comps: 822, Hashes: 305, Moves: 5, Swaps: 0, SeqIOs: 101, RandIOs: 0}, 1015311000},
	{"SELECT emp.id, city FROM emp JOIN dept ON emp.dept = dept.id WHERE salary >= 43000 AND budget > 200 ORDER BY emp.id DESC", 215, "[600 city4]", "[10 city2]", Counters{Comps: 822, Hashes: 305, Moves: 5, Swaps: 0, SeqIOs: 101, RandIOs: 0}, 1015311000},
	{"SELECT emp.id, city FROM emp JOIN dept ON emp.dept = dept.id WHERE salary >= 43000 AND budget > 200 ORDER BY emp.id DESC LIMIT 7", 7, "[600 city4]", "[584 city2]", Counters{Comps: 822, Hashes: 305, Moves: 5, Swaps: 0, SeqIOs: 101, RandIOs: 0}, 1015311000},
	{"SELECT emp.id, proj.id, city FROM emp JOIN dept ON emp.dept = dept.id JOIN proj ON proj.dept = dept.id", 3440, "[1 1 city0]", "[600 40 city4]", Counters{Comps: 4040, Hashes: 1247, Moves: 47, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 24283000},
	{"SELECT emp.id, proj.id, city FROM emp JOIN dept ON emp.dept = dept.id JOIN proj ON proj.dept = dept.id LIMIT 7", 7, "[1 1 city0]", "[1 31 city0]", Counters{Comps: 4040, Hashes: 1247, Moves: 47, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 24283000},
	{"SELECT emp.id, proj.id, city FROM emp JOIN dept ON emp.dept = dept.id JOIN proj ON proj.dept = dept.id ORDER BY emp.id", 3440, "[1 1 city0]", "[600 40 city4]", Counters{Comps: 4040, Hashes: 1247, Moves: 47, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 24283000},
	{"SELECT emp.id, proj.id, city FROM emp JOIN dept ON emp.dept = dept.id JOIN proj ON proj.dept = dept.id ORDER BY emp.id LIMIT 7", 7, "[1 1 city0]", "[1 31 city0]", Counters{Comps: 4040, Hashes: 1247, Moves: 47, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 24283000},
	{"SELECT emp.id, proj.id, city FROM emp JOIN dept ON emp.dept = dept.id JOIN proj ON proj.dept = dept.id ORDER BY emp.id DESC", 3440, "[600 5 city4]", "[1 36 city0]", Counters{Comps: 4040, Hashes: 1247, Moves: 47, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 24283000},
	{"SELECT emp.id, proj.id, city FROM emp JOIN dept ON emp.dept = dept.id JOIN proj ON proj.dept = dept.id ORDER BY emp.id DESC LIMIT 7", 7, "[600 5 city4]", "[600 35 city4]", Counters{Comps: 4040, Hashes: 1247, Moves: 47, Swaps: 0, SeqIOs: 0, RandIOs: 0}, 24283000},
	{"SELECT emp.id, proj.id, city FROM emp JOIN dept ON emp.dept = dept.id JOIN proj ON proj.dept = dept.id WHERE salary >= 45000 AND hours > 20", 438, "[33 5 city4]", "[599 39 city3]", Counters{Comps: 1108, Hashes: 297, Moves: 191, Swaps: 0, SeqIOs: 156, RandIOs: 0}, 1569817000},
	{"SELECT emp.id, proj.id, city FROM emp JOIN dept ON emp.dept = dept.id JOIN proj ON proj.dept = dept.id WHERE salary >= 45000 AND hours > 20 LIMIT 7", 7, "[33 5 city4]", "[47 5 city4]", Counters{Comps: 1108, Hashes: 297, Moves: 191, Swaps: 0, SeqIOs: 156, RandIOs: 0}, 1569817000},
	{"SELECT emp.id, proj.id, city FROM emp JOIN dept ON emp.dept = dept.id JOIN proj ON proj.dept = dept.id WHERE salary >= 45000 AND hours > 20 ORDER BY emp.id", 438, "[15 6 city0]", "[600 40 city4]", Counters{Comps: 1108, Hashes: 297, Moves: 191, Swaps: 0, SeqIOs: 156, RandIOs: 0}, 1569817000},
	{"SELECT emp.id, proj.id, city FROM emp JOIN dept ON emp.dept = dept.id JOIN proj ON proj.dept = dept.id WHERE salary >= 45000 AND hours > 20 ORDER BY emp.id LIMIT 7", 7, "[15 6 city0]", "[16 7 city1]", Counters{Comps: 1108, Hashes: 297, Moves: 191, Swaps: 0, SeqIOs: 156, RandIOs: 0}, 1569817000},
	{"SELECT emp.id, proj.id, city FROM emp JOIN dept ON emp.dept = dept.id JOIN proj ON proj.dept = dept.id WHERE salary >= 45000 AND hours > 20 ORDER BY emp.id DESC", 438, "[600 5 city4]", "[15 36 city0]", Counters{Comps: 1108, Hashes: 297, Moves: 191, Swaps: 0, SeqIOs: 156, RandIOs: 0}, 1569817000},
	{"SELECT emp.id, proj.id, city FROM emp JOIN dept ON emp.dept = dept.id JOIN proj ON proj.dept = dept.id WHERE salary >= 45000 AND hours > 20 ORDER BY emp.id DESC LIMIT 7", 7, "[600 5 city4]", "[599 4 city3]", Counters{Comps: 1108, Hashes: 297, Moves: 191, Swaps: 0, SeqIOs: 156, RandIOs: 0}, 1569817000},
}

// pinnedProbes is what the §2 access path bills on newLoweringDB once
// emp.id carries a B+-tree (600 entries, so ⌈log2 n⌉ = 10 comparisons per
// descent; 100 pages): a point, a narrow range and the two-key OR probe —
// their walk's comparisons, one random read per page holding a row and
// the filter per fetched row — while the wide range walks until its price
// passes the scan's, then scans, billing the abandoned walk's comparisons
// on top of the scan the unindexed table bills.
var pinnedProbes = []pinnedSelect{
	{"SELECT id, salary FROM emp WHERE id = 300", 1, "[300 42630]", "[300 42630]", Counters{Comps: 13, Hashes: 0, Moves: 0, Swaps: 0, SeqIOs: 0, RandIOs: 1}, 25039000},
	{"SELECT id, salary FROM emp WHERE id >= 100 AND id < 110", 10, "[100 40630]", "[109 43960]", Counters{Comps: 41, Hashes: 0, Moves: 0, Swaps: 0, SeqIOs: 0, RandIOs: 3}, 75123000},
	{"SELECT id, salary FROM emp WHERE id = 300 OR id = 17", 2, "[17 45920]", "[300 42630]", Counters{Comps: 28, Hashes: 0, Moves: 0, Swaps: 0, SeqIOs: 0, RandIOs: 2}, 50084000},
	{"SELECT id, salary FROM emp WHERE id > 100", 500, "[101 41000]", "[600 45630]", Counters{Comps: 847, Hashes: 0, Moves: 0, Swaps: 0, SeqIOs: 100, RandIOs: 0}, 1002541000},
}
