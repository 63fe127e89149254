"""How many Fock states are enough: cutoff scans at weak and strong drive.

At E = 0.1 the photon ladder empties so fast that cutoff 8 is already
converged to machine precision; at E = 2 the occupation climbs and the
ladder has to be much taller before the observables settle.
"""

import numpy as np

from qdblockade.model import HilbertSpace, ModelParams
from qdblockade.steady_state import solve_steady_state, steady_state_grid

weak = ModelParams(delta=-20.0, delta_a=-20.0, g=20.0, E=0.1, U=0.0005)
strong = ModelParams(delta=0.0, delta_a=0.0, g=20.0, E=2.0, U=0.0005)

for label, params, cutoffs in (("weak drive (E = 0.1)", weak, (4, 6, 8, 10, 12)),
                               ("strong drive (E = 2)", strong, (4, 8, 12, 16, 20, 24))):
    print(label)
    print("  cutoff        g2(0)           n_a        residual")
    for cutoff in cutoffs:
        res = solve_steady_state(params, HilbertSpace(cutoff))
        print(f"  {cutoff:6d}   {res.g2_zero:.8e}   {res.n_a:.5e}   {res.residual:.1e}")
    print()

# the automatic ladder of a one-cell grid: steps of 4 until g2 and n_a both stop
# moving; history receives each rung the cell was solved on
for label, params in (("weak", weak), ("strong", strong)):
    history = []
    res = steady_state_grid(4, 1e-6, history, **vars(params))
    steps = " -> ".join(str(rung.cutoff_used[0]) for rung in history)
    print(f"{label} drive settled at cutoff {res.cutoff_used} (tried {steps}): "
          f"g2 = {res.g2:.6e}, n_a = {res.n_a:.6e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

cutoffs = np.arange(4, 25, 2)
n_strong = [solve_steady_state(strong, HilbertSpace(int(c))).n_a for c in cutoffs]
if plt is not None:
    fig, ax = plt.subplots(figsize=(6.0, 4.0))
    ax.plot(cutoffs, n_strong, "o-")
    ax.set_xlabel("Fock cutoff")
    ax.set_ylabel("n_a at E = 2")
    fig.tight_layout()
    fig.savefig("convergence_study.png", dpi=150)
    print("\nwrote convergence_study.png")
else:
    np.savetxt("convergence_study.csv",
               np.column_stack([cutoffs, n_strong]), delimiter=",",
               header="cutoff,n_a_strong", comments="")
    print("\nmatplotlib not available, wrote convergence_study.csv")
