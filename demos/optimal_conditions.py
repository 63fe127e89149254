"""Where blockade lives: root finding for both antibunching mechanisms.

For a handful of cuts this prints every predicted blockade condition, labels
it by mechanism (hyperbola vs interference), and checks the prediction with
a full steady-state solve at the root.
"""

from dataclasses import replace

from qdblockade.analytic import ucpb_roots
from qdblockade.model import ModelParams
from qdblockade.steady_state import steady_state_grid

base = ModelParams(delta=0.0, delta_a=0.0, g=20.0, E=0.1, U=0.0005)

cases = [
    ("delta = 30, free cavity detuning", replace(base, delta=30.0),
     "delta_a", (0.0, 60.0)),
    ("delta_a = -20, free dot detuning", replace(base, delta_a=-20.0),
     "delta", (-60.0, 60.0)),
    ("delta_a = 20, free dot detuning", replace(base, delta_a=20.0),
     "delta", (-60.0, 60.0)),
    ("delta_a = 30, free dot detuning", replace(base, delta_a=30.0),
     "delta", (-60.0, 60.0)),
    ("cavity only (g = 0), free cavity detuning",
     replace(base, g=0.0, delta=30.0), "delta_a", (0.0, 60.0)),
]

for title, params, free, interval in cases:
    print(title)
    roots = ucpb_roots(params, free=free, interval=interval)
    if not roots:
        print("  no blockade roots in the interval")
        print()
        continue
    numerics = steady_state_grid(8, **{**vars(params), free: [r.value for r in roots]}).g2
    for root, numeric in zip(roots, numerics.tolist()):
        print(f"  {root.kind:4s} {free} = {root.value:+8.3f}   "
              f"|c2g| residual = {root.residual:.2e}   "
              f"predicted g2 = {root.g2:.3e}   numeric g2 = {numeric:.3e}")
    print()

# the interference condition shifts with the dot: at g = 0 the trough sits at
# delta_a = E^2/U = 20, with the dot it moves to 37.3 on the same cut
print("shifting the interference trough by adding the dot:")
for g, label in ((0.0, "g = 0"), (20.0, "g = 20")):
    roots = ucpb_roots(replace(base, delta=30.0, g=g),
                       free="delta_a", interval=(0.0, 60.0))
    best = min((r for r in roots if r.kind == "UCPB"),
               key=lambda r: r.residual, default=None)
    if best is not None:
        print(f"  {label:6s} interference trough at delta_a = {best.value:.2f}")
