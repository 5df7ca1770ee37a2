"""The cone solver on its own: norms, feasibility verdicts, debug dumps.

The solver handles programs of the form: minimize c @ x subject to
b - A @ x lying in a product of Zero, NonNeg and SecondOrder blocks.
"""

import os
import tempfile

import numpy as np

from riskbudget import ConeProgram, NonNeg, SecondOrder, Zero, dump_program, solve

print("=== smallest t with t >= ||(3, 4)|| ===")
prog = ConeProgram(c=np.array([1.0]),
                   A=np.array([[-1.0], [0.0], [0.0]]),
                   b=np.array([0.0, 3.0, 4.0]),
                   cones=(SecondOrder(3),))
sol = solve(prog)
print(f"  status {sol.status.value}, objective {sol.objective:.8f} (exact: 5)\n")

print("=== projection of (1, 2, 3) onto the plane x+y+z = 0 ===")
# variables (x1, x2, x3, t); minimize t with t >= ||x - p||
p = np.array([1.0, 2.0, 3.0])
A = np.zeros((5, 4))
A[0, :3] = 1.0                 # plane: zero block
A[1, 3] = -1.0                 # cone head slack: t
A[2:, :3] = -np.eye(3)         # cone tail slack: x - p
b = np.concatenate([[0.0], [0.0], -p])
prog = ConeProgram(c=np.array([0, 0, 0, 1.0]), A=A, b=b,
                   cones=(Zero(1), SecondOrder(4)))
sol = solve(prog)
print(f"  distance {sol.objective:.8f} (exact: {abs(p.sum()) / np.sqrt(3):.8f})")
print(f"  projection {np.round(sol.primal[:3], 10)}\n")

print("=== infeasible and unbounded programs get certificates, not crashes ===")
infeas = ConeProgram(c=np.ones(2), A=np.vstack([np.ones(2), -np.eye(2)]),
                     b=np.array([-1.0, 0.0, 0.0]), cones=(Zero(1), NonNeg(2)))
print(f"  x >= 0 with sum -1: {solve(infeas).status.value}")
unbounded = ConeProgram(c=np.array([-1.0]), A=np.array([[-1.0]]), b=np.array([0.0]),
                        cones=(NonNeg(1),))
print(f"  minimize -x with x >= 0: {solve(unbounded).status.value}\n")

print("=== plain-text dump for cross-checking against other solvers ===")
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "infeasible.txt")
    dump_program(infeas, path)
    with open(path) as fh:
        print("  " + "\n  ".join(fh.read().splitlines()))
