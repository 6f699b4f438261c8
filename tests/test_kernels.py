import random
import tracemalloc

import numpy as np
import pytest

from paraclasses.centralizer import reduced_action_generators
from paraclasses.cocentralizer import CocentElement, CocentShape, act_left, act_right
from paraclasses.errors import BudgetExceeded
from paraclasses.gf import ff
from paraclasses.kernels import _CHUNK, _expand, orbit_partition
from paraclasses.matrix_problem import canonical_form, decode, encode, packed_actions

F2, F3, F4 = ff(2), ff(3), ff(2, 2)


@pytest.mark.parametrize("mu,nu,field,dtype", [
    ((2, 1), (2, 1), F3, np.int64),  # 243 states: at most one chunk
    ((1, 1, 1), (1, 1, 1), F3, np.int32),  # 19,683: past one chunk
    ((3, 2, 2, 2), (3, 3, 2, 1), F2, np.int32),  # 2^30
    ((3, 2, 2, 1, 1), (3, 3, 2, 1), F2, np.int64),  # 2^31: the first past int32
    ((1, 1, 1, 1), (1, 1, 1, 1), F4, np.int64)])  # 2^32
def test_states_are_int32_past_one_chunk_and_below_two_to_the_31(mu, nu, field, dtype):
    # the packed tables, and the images of a few states, the top one
    # included, against the actions themselves; no space is swept
    sh = CocentShape(mu, nu, field)
    pa = packed_actions(sh)
    assert pa.dtype is dtype and pa.pows.dtype == dtype
    assert all(t.dtype == dtype for rows in pa.gens for _, t in rows)
    rng = random.Random(7)
    states = [0, pa.space() - 1] + [rng.randrange(pa.space()) for _ in range(10)]
    (images,) = _expand(np.array(states, dtype=dtype), pa)
    assert images.dtype == dtype
    images = images.reshape(pa.n_gens, len(states))
    left = reduced_action_generators(sh.mu, field)
    right = reduced_action_generators(sh.nu, field)
    for i, s in enumerate(states):
        v = decode(s, sh)
        want = ({encode(act_left(g, v)) for g in left}
                | {encode(act_right(v, g)) for g in right})
        # generators that fix v, or act alike, are packed once or not at all
        assert set(images[:, i].tolist()) | {s} == want | {s}


def test_a_space_past_two_to_the_63_has_no_state_type():
    # 2^64 states: int64 radix powers would wrap, so a closure would read
    # wrong digits; packing refuses the space instead, naming the shape
    sh = CocentShape((1,) * 8, (1,) * 8, F2)
    flat = [0] * sh.dim
    flat[-1] = 1
    for call in (lambda: packed_actions(sh),
                 lambda: canonical_form(CocentElement.from_flat(sh, flat))):
        with pytest.raises(BudgetExceeded, match=r"^\(1,1,1,1,1,1,1,1\)x\(1,1,1,1,1,1,1,1\) "
                           "over F_2 needs 18446744073709551616 states, "
                           "budget 9223372036854775808$"):
            call()


def _peak_bound(pa) -> int:
    """The kernels module docstring's bound on a sweep's peak bytes below
    2^31 states, besides the returned lists."""
    space, gens, dim, buffers = pa.space(), pa.n_gens, pa.dim, 1 << 18
    if space <= _CHUNK:
        return (48 + 8 * gens + 8 * dim) * space + buffers
    return 5 * space + (17 * gens + 8 * dim + 16) * _CHUNK + buffers  # int32 states


@pytest.mark.parametrize("mu,nu,field", [
    ((4, 1), (3, 2), F4),  # 16,384 states: label propagation
    ((1, 1, 1, 1, 1, 1), (2, 1, 1), F2)])  # 262,144 states: breadth-first
def test_sweep_peak_bytes_stay_under_the_docstring_bound(mu, nu, field):
    pa = packed_actions(CocentShape(mu, nu, field))
    tracemalloc.start()
    try:
        reps, _ = orbit_partition(pa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the returned lists and a few small Python objects besides the bound
    assert peak <= _peak_bound(pa) + 64 * len(reps) + (1 << 16)
