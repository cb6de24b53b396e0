"""Tour of the taped autodiff engine.

Run with:  python3 demos/autodiff_basics.py

Covers the three moving parts everything else is built on: Tensors with
gradient slots, the Tape that records operations, and backward(), plus
the finite-difference harness that keeps analytic gradients honest.
"""

import numpy as np

from msar import Tape, Tensor, backward, check_gradients, conv2d
from msar.tensor import add, mul

print("== a scalar chain, differentiated by hand and by tape ==")
# f(x) = x * x + 1 at x = 3: df/dx = 2x = 6
x = Tensor(np.array(3.0))
with Tape() as tape:
    y = add(mul(x, x), Tensor(np.array(1.0)))
    backward(tape, y)
print(f"f(3) = {y.data:.1f}, analytic df/dx = {x.grad:.1f} (expected 6.0)")

print()
print("== gradients accumulate; callers zero them between uses ==")
x.zero_grad()
with Tape() as tape:
    backward(tape, mul(x, x))
with Tape() as tape:
    backward(tape, mul(x, x))
print(f"two backward passes without zeroing: x.grad = {x.grad:.1f} (6 + 6)")

print()
print("== operations outside a tape do not record anything ==")
x.zero_grad()
_ = mul(x, x)      # no tape open, nothing to replay
print(f"after an untaped multiply x.grad is {x.grad} (untouched)")

print()
print("== the finite-difference check, on a real operator ==")
rng = np.random.default_rng(0)
img = Tensor(rng.standard_normal((2, 3, 6, 6)))
ker = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.2)
err = check_gradients(lambda: conv2d(img, ker, stride=1, pad=1), [img, ker], rng)
print(f"conv2d max relative error vs central differences: {err:.2e}")
print("anything below 1e-4 in 64-bit mode is a pass; typical values sit near 1e-8")
