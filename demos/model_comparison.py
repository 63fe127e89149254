"""Three models on one cut: dot only (U=0), cavity only (g=0), and both.

Scans the cavity detuning at delta = 30 and shows that the composite system
keeps the dot trough, moves the interference trough, and leaves the mean
photon number essentially untouched by the gain.
"""

import numpy as np

from qdblockade.steady_state import steady_state_grid

axis = np.arange(0.0, 60.0 + 0.125, 0.25)
cut = dict(delta=30.0, delta_a=axis, g=20.0, E=0.1, U=0.0005)

curves = {}
for name, limit in (("composite", {}), ("dot only", {"U": 0.0}), ("cavity only", {"g": 0.0})):
    res = steady_state_grid(8, **{**cut, **limit})
    curves[name] = (res.g2, res.n_a)

def troughs(ys, bar=0.1):
    out = []
    for i in range(1, axis.size - 1):
        if ys[i] < bar and ys[i] < ys[i - 1] and ys[i] < ys[i + 1]:
            out.append((axis[i], ys[i]))
    return out

print("g2 troughs below 0.1 on the delta = 30 cut:")
for name, (g2, _) in curves.items():
    spots = ", ".join(f"{x:.2f} (g2={y:.2e})" for x, y in troughs(g2))
    print(f"  {name:12s} {spots}")

rel = np.abs(curves["composite"][1] - curves["dot only"][1]) / curves["dot only"][1]
print(f"\nmean photon number, composite vs dot only: max rel diff "
      f"{rel.max():.2e} at delta_a = {axis[np.argmax(rel)]:.2f}")
print("(the bump sits where delta_a (delta + delta_a) = g^2, the gain-pumped "
      "two-photon resonance; elsewhere the curves are within a fraction of a percent)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, (top, bottom) = plt.subplots(2, 1, figsize=(7.0, 6.5), sharex=True)
    styles = {"composite": "b:", "dot only": "r-", "cavity only": "y--"}
    for name, (g2, n_a) in curves.items():
        top.semilogy(axis, g2, styles[name], lw=1.2, label=name)
        bottom.semilogy(axis, n_a, styles[name], lw=1.2)
    top.axhline(1.0, color="gray", lw=0.8)
    top.set_ylabel("g2(0)")
    top.legend()
    bottom.set_ylabel("mean photon number")
    bottom.set_xlabel("cavity detuning delta_a [gamma]")
    fig.tight_layout()
    fig.savefig("model_comparison.png", dpi=150)
    print("\nwrote model_comparison.png")
else:
    cols = [axis]
    for name in ("composite", "dot only", "cavity only"):
        cols.extend(curves[name])
    np.savetxt("model_comparison.csv", np.column_stack(cols), delimiter=",",
               header="delta_a,g2_composite,n_a_composite,g2_dot,n_a_dot,"
                      "g2_cavity,n_a_cavity", comments="")
    print("\nmatplotlib not available, wrote model_comparison.csv")
