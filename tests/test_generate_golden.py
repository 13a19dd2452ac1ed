"""Golden bytes of the instance generators.

Each case pins one SHA-256 over `serialize(generate(spec, t))` for every
trial t of the case, in trial order. The small specs are those of the
default verification plans and of the oracle-reduction runs, at 1000 trials
each. The large specs reach the long candidate lists and the batched
shuffle of the large-instance path, at about 20 trials each. A change to
any of these bytes is a behaviour change: every generator must keep its
exact SplitMix64 draw sequence.
"""

from __future__ import annotations

import hashlib

import pytest

from redlab.harness import GenSpec, generate, resolve
from redlab.instances import serialize

# (label, spec, trials, sha256). The strict oracle-reduction run draws from
# the spec of the dstcon_to_ap2dm plan.
CASES = [
    *[(f"plan:{name}", resolve(name).genspec, 1000, sha) for name, sha in [
        ("sat2_to_2cvc3",
         "e3f8b497bb9b344303d8c547a37c41ab8ff3974077479fd4d99dcee5e46f0ed9"),
        ("cvc3_to_sat2",
         "ab3920c5377f09ddb6229d14385f5517172fd0955c8f0e61de03b693a59735bb"),
        ("sat2_to_3xce2",
         "3b7abca8341e7c3655a0d6cce487e41c36bd43ea13ffd505c82fce4cefec625e"),
        ("xce2_to_2lp",
         "f253a24def297ac68ead600f7b198c2e362dc886468add478bc2d0f8a0bd064c"),
        ("lp_to_2lp",
         "3247122b89cf2e0a0b30ce1a5f49b72360043a37ba750bdc30c1492fe0afadf8"),
        ("twolp_to_lp",
         "29e86dab7323b44eb55837a0f155c7c0ced378b6dfb8c1b62de76d7e63312e70"),
        ("le_to_xor2sat",
         "a313f4d4d946199e6ee7493c9e14e1a1b49303c05b72a242784aa2761c268ad0"),
        ("normalize_2sat3",
         "6b4d7b4c745745b6f318ecc20f5e3c306588f36ef207e64d0dd49d2f84b4ec38"),
        ("normalize_dstcon",
         "b706a36fb3a63f63d828eda6b35692c20fe3a83db8ca1355ba7fec3966843253"),
        ("dstcon_to_ap2dm",
         "da2dce33e5d68fbe3f923c7dd4ce51fa98e77edf3f8b3ee98bf9f0d561a0fb31"),
        ("reduce_degree_dstcon",
         "1e009ce984b2fcccec20380cb4125ba38e04f1df3060ed4b47bb8e72cbe555ea"),
    ]],
    ("oracle_reduction:exploratory", GenSpec("ap2dm", max_size=5, seed=1), 1000,
     "a4b7568df3e930434c9848479718940ea9ab6bd332e24eef11d7da7089e627d7"),
    ("large:xce", GenSpec("xce", max_size=400, seed=3), 20,
     "7e5c2e6e44cc4e243220343cc7eaf49054bbce8a864feaf86668832a382d3406"),
    ("large:lin_geq", GenSpec("lin_geq", max_size=400, seed=3, max_rows=100), 20,
     "b68944d823c5fd884f63c2c0ac6eecef9629e92fb333253800b8cf9a8b5b5a93"),
    ("large:lin_band", GenSpec("lin_band", max_size=400, seed=4, max_rows=100), 20,
     "d09faa21f3c4cf427c8a937dd854e6d58b46de4482aadbd756c3c4b4fa441d05"),
    ("large:lin_eq", GenSpec("lin_eq", max_size=400, seed=5, max_rows=100), 20,
     "11ad88edb0077462ee8389d9e68cab8445949233c1a39e30e9f53f29b14f7654"),
    ("large:2sat3_exact", GenSpec("2sat3", max_size=300, seed=6, clauses=300), 20,
     "d5ef8a3b7e187b783d6e2e1881fb0378e77eb59a1cb48797bd0f952bab904181"),
    ("large:2sat3_drawn", GenSpec("2sat3", max_size=300, seed=7), 20,
     "fcf4776fdc55d5cbf748168deb49e4c279474fde4c88f9eeb47dad82415b1613"),
    ("large:ap2dm", GenSpec("ap2dm", max_size=300, seed=8), 20,
     "f236a59451e0368d2e9755ac0ad9d4a76e7677448f7f5fcdc85123017af118fb"),
]


def _digest(spec: GenSpec, trials: int) -> str:
    h = hashlib.sha256()
    for t in range(trials):
        h.update(serialize(generate(spec, t)).encode())
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("spec,trials,sha", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_generator_bytes(spec, trials, sha):
    assert _digest(spec, trials) == sha
