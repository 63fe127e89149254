"""Tour of the weak-drive amplitude theory: hierarchy, closed forms, roots."""

import numpy as np

from qdblockade.analytic import cpb_partner_detuning, ucpb_roots, weak_drive_grid
from qdblockade.model import ModelParams

# reference operating point: both detunings on the hyperbola delta*delta_a = g^2
ref = ModelParams(delta=-20.0, delta_a=-20.0, g=20.0, E=0.1, U=0.0005)

amps = weak_drive_grid(**vars(ref))
c1g, c2g = complex(amps.c1g), complex(amps.c2g)
print("amplitudes at delta = delta_a = -20 (closed form):")
for name in ("c0e", "c1g", "c1e", "c2g"):
    print(f"  {name} = {complex(getattr(amps, name)):.6e}")

# the hierarchy |c2g| << |c1g| << 1 is what lets two photon states tell the story
print(f"hierarchy: |c2g|/|c1g| = {abs(c2g)/abs(c1g):.3e}, "
      f"|c1g| = {abs(c1g):.3e}")
print(f"predicted g2(0) = {float(amps.g2):.4e}, "
      f"n_a = {float(amps.n_a):.4e}")

# blockade conditions on the delta_a = 20 cut: one root from the hyperbola,
# one from destructive interference of the paths into |2,g>
print("\nroots on the delta_a = 20 cut, delta free in [-60, 60]:")
cut = ModelParams(delta=0.0, delta_a=20.0, g=20.0, E=0.1, U=0.0005)
for root in ucpb_roots(cut, free="delta", interval=(-60.0, 60.0)):
    print(f"  {root.kind:4s} at delta = {root.value:+8.3f}   "
          f"|c2g| residual = {root.residual:.2e}   "
          f"predicted g2 = {root.g2:.3e}")
print(f"hyperbola partner of delta_a = 20 at g = 20: "
      f"delta = {cpb_partner_detuning(20.0, 20.0):.3f}")

# same cut seen as a curve
deltas = np.arange(-60.0, 60.0 + 0.125, 0.25)
g2 = weak_drive_grid(delta=deltas, delta_a=20.0, g=20.0, E=0.1, U=0.0005).g2

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(7.0, 4.0))
    ax.semilogy(deltas, g2, lw=1.2)
    ax.axhline(1.0, color="gray", lw=0.8, ls="--")
    ax.set_xlabel("dot detuning delta [gamma]")
    ax.set_ylabel("g2(0), weak-drive theory")
    ax.set_title("delta_a = 20, g = 20, E = 0.1, U = 0.0005")
    fig.tight_layout()
    fig.savefig("weak_drive_theory.png", dpi=150)
    print("\nwrote weak_drive_theory.png")
else:
    np.savetxt("weak_drive_theory.csv",
               np.column_stack([deltas, g2]), delimiter=",",
               header="delta,g2_analytic", comments="")
    print("\nmatplotlib not available, wrote weak_drive_theory.csv")
