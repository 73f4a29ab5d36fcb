"""Hypothesis strategies for random-draw programs.

A program is a seed plus a sequence of draws a :class:`RandomSource` makes:
byte draws of every size class interleaved with the scalar draws the
simulator makes between them (``integer``, ``jittered``, ``bernoulli``,
``uniform``).  The scalar draws matter for the byte fast path: a 32-bit
``integer`` leaves half of a 64-bit raw draw buffered in the generator, and
a byte draw must start from that half and leave the generator exactly
where ``Generator.integers`` would.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.utils.rng import RandomSource

#: Byte counts around the 4-byte word and 8-byte raw-draw boundaries, plus
#: TCP-segment, TLS-record and multi-record sizes.
_BYTE_COUNTS = st.one_of(
    st.integers(1, 17),
    st.integers(18, 4_096),
    st.sampled_from((1_460, 16_384 + 24, 65_536 + 3)),
)
#: Inclusive ranges narrow enough for numpy's buffered 32-bit path and wide
#: enough for its 64-bit one.
_SPANS = st.one_of(st.integers(0, 1_000), st.sampled_from((2**31, 2**32 - 1, 2**32, 2**40)))

_DRAWS = st.one_of(
    st.tuples(st.just("bytes"), _BYTE_COUNTS),
    st.builds(
        lambda low, span: ("integer", low, low + span), st.integers(-2**20, 2**20), _SPANS
    ),
    st.tuples(st.just("jittered"), st.integers(0, 10_000), st.integers(0, 500)),
    st.tuples(st.just("bernoulli"), st.floats(0.0, 1.0)),
    st.tuples(
        st.just("uniform"),
        st.floats(-1e3, 1e3, allow_nan=False),
        st.floats(1e3, 2e3, allow_nan=False),
    ),
)


@st.composite
def rng_draws(draw, max_draws: int = 12) -> tuple[int, list[tuple]]:
    """``(seed, draws)``: a seed and a non-empty list of draws to replay."""
    seed = draw(st.integers(0, 2**63 - 1))
    return seed, draw(st.lists(_DRAWS, min_size=1, max_size=max_draws))


def replay_scalar(source: RandomSource, step: tuple) -> object:
    """Make one scalar draw of a :func:`rng_draws` program on ``source``."""
    kind, *arguments = step
    return getattr(source, kind)(*arguments)
