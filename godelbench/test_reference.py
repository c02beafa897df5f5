"""Hand-worked values for the reference interpreter.

    python3 godelbench/test_reference.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as R  # noqa: E402


class ReferenceTest(unittest.TestCase):
    def test_unpair_walks_the_diagonals(self):
        # 0:(0,0) 1:(1,0) 2:(0,1) 3:(2,0) 4:(1,1) 5:(0,2) 6:(3,0)
        want = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0)]
        self.assertEqual([R.unpair(n) for n in range(7)], want)
        # pair(x, y) = (x+y)(x+y+1)/2 + y, at a size where floats fail
        x, y = 3 ** 200, 7 ** 90
        s = x + y
        self.assertEqual(R.unpair(s * (s + 1) // 2 + y), (x, y))

    def test_decode_small_programs(self):
        # 1 = pair(0, 0) + 1 -> [Z 0]; 2 = pair(1, 0) + 1 -> [S 0];
        # 7 = pair(3, 0) + 1, code 3 is J with payload 0 -> [J 0 0 0];
        # 11 = pair(4, 0) + 1 -> [EVB 0 0 0 0]
        self.assertEqual(R.decode_program(0), [])
        self.assertEqual(R.decode_program(1), [("Z", 0)])
        self.assertEqual(R.decode_program(2), [("S", 0)])
        self.assertEqual(R.decode_program(7), [("J", 0, 0, 0)])
        self.assertEqual(R.decode_program(11), [("EVB", 0, 0, 0, 0)])
        # code 5 * pair(2, pair(3, 4)) + 3 = J 2 3 4
        inner = 3 + 4
        p = inner * (inner + 1) // 2 + 4          # pair(3, 4) = 32
        outer = 2 + p
        code = 5 * (outer * (outer + 1) // 2 + p) + 3
        self.assertEqual(R.decode_program(code * (code + 1) // 2 + 1),
                         [("J", 2, 3, 4)])

    def test_values_at_zero_of_the_first_nine_indices(self):
        # [], [Z 0], [S 0], [Z 0; Z 0], [T 0 0], [S 0; Z 0], [Z 0; S 0],
        # [J 0 0 0], [T 0 0; Z 0]
        want = [0, 0, 1, 0, 0, 0, 1, None, 0]
        got = [R.run(i, 0, 1000) for i in range(9)]
        self.assertEqual([None if o is None else o[0] for o in got], want)
        self.assertEqual(got[5], (0, 2))

    def test_budget_is_inclusive_of_the_last_step(self):
        self.assertEqual(R.run(9, 4, 2), (6, 2))   # [S 0; S 0]
        self.assertIsNone(R.run(9, 4, 1))

    def test_evb(self):
        # [EVB 0 0 0 0] runs program R0 on input R0 under budget R0 and
        # stores value + 1 (0 when the budget runs out) in R0
        self.assertEqual(R.run(11, 0, 10), (1, 1))   # [] on 0 -> 0
        self.assertEqual(R.run(11, 2, 10), (4, 1))   # [S 0] on 2 -> 3
        self.assertEqual(R.run(11, 7, 10), (0, 1))   # [J 0 0 0] loops
        self.assertEqual(R.run(11, 11, 10), (0, 1))  # re-entrance is cut

    def test_depth_cut(self):
        # R.run(11, n, .) with the chain already DEPTH_LIMIT deep cuts the
        # inner call; one shallower, it runs
        deep = frozenset((10**6 + k, 0) for k in range(R.DEPTH_LIMIT - 1))
        self.assertEqual(R.run(11, 2, 10, deep), (0, 1))
        self.assertEqual(R.run(11, 2, 10, frozenset(list(deep)[1:])), (4, 1))

    def test_universe_table(self):
        table = R.UniverseTable(index_bound=12, window=3, cap=50)
        self.assertEqual(table.least((0, 0, 0, 0)), 1)      # [Z 0]
        self.assertEqual(table.least((1, 2, 3, 4)), 2)      # [S 0]
        self.assertEqual(table.least((2, 3, 4, 5)), 9)      # [S 0; S 0]
        self.assertEqual(table.least((7, 7, 7, 7)), None)
        self.assertEqual(table.verified((0, 1, 2, 3))[:2], [0, 4])
        self.assertTrue(table.verifies(2, (1, 2, 3, 4)))


if __name__ == "__main__":
    unittest.main()
