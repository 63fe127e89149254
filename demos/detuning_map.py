"""Map of g2(0) over both detunings: hyperbola valleys, interference channel.

The map itself uses the weak-drive theory (one array evaluation for the whole
plane); a handful of full steady-state solves then confirm the analytic
picture where it matters.
"""

import numpy as np

from qdblockade.analytic import weak_drive_grid
from qdblockade.steady_state import steady_state_grid

G = 20.0
E = 0.1
U = 0.0005

axis = np.arange(-60.0, 60.0 + 0.25, 0.5)
# rows run along delta_a, columns along delta
g2 = weak_drive_grid(delta=axis, delta_a=axis[:, np.newaxis], g=G, E=E, U=U).g2

# quadrant minima; the hyperbola lives in quadrants 1 and 3, the interference
# channel sweeps through 2 and continues weakly into 4
half = axis.size // 2
quads = {
    "q1 (d>0, da>0)": g2[half + 1:, half + 1:],
    "q2 (d<0, da>0)": g2[half + 1:, :half],
    "q3 (d<0, da<0)": g2[:half, :half],
    "q4 (d>0, da<0)": g2[:half, half + 1:],
}
print("minimum predicted g2 per detuning-sign quadrant:")
for name, block in quads.items():
    print(f"  {name}: {np.nanmin(block):.3e}")

print("\nsteady-state spot checks (cutoff 8):")
spots = [(-20.0, -20.0), (20.0, 20.0), (-40.0, 20.0), (28.0, -32.0)]
at_spots = dict(delta=[d for d, _ in spots], delta_a=[da for _, da in spots], g=G, E=E, U=U)
theory = weak_drive_grid(**at_spots).g2
numeric = steady_state_grid(8, **at_spots).g2
for (d, da), num, predicted in zip(spots, numeric.tolist(), theory.tolist()):
    print(f"  delta={d:+6.1f} delta_a={da:+6.1f}   numeric {num:.3e}   "
          f"theory {predicted:.3e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(6.0, 5.0))
    mesh = ax.pcolormesh(axis, axis, np.log10(g2), cmap="viridis",
                         vmin=-4.0, vmax=2.0, shading="nearest")
    fig.colorbar(mesh, ax=ax, label="log10 g2(0)")
    branch = axis[np.abs(axis) >= 7.0]
    ax.plot(branch, G * G / branch, "r--", lw=0.8, label="delta*delta_a = g^2")
    ax.set_xlim(axis[0], axis[-1])
    ax.set_ylim(axis[0], axis[-1])
    ax.set_xlabel("dot detuning delta [gamma]")
    ax.set_ylabel("cavity detuning delta_a [gamma]")
    ax.legend(loc="upper left")
    fig.tight_layout()
    fig.savefig("detuning_map.png", dpi=150)
    print("\nwrote detuning_map.png")
else:
    np.savetxt("detuning_map.csv", g2, delimiter=",")
    print("\nmatplotlib not available, wrote detuning_map.csv (rows = delta_a)")
