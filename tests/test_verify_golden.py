"""Golden bytes of the verification runs.

Each case pins the SHA-256 of the deterministic output of one run: the
`verify --no-timing` or `fit` stdout, and the counterexample files the run
writes (name and content, in name order). The exploratory oracle-reduction
run has no command line; its summary text and its findings are pinned
instead. A change to any of these bytes is a behaviour change.
"""

from __future__ import annotations

import hashlib

import pytest

from redlab import harness
from redlab.cli import main

# (argv, stdout sha256, counterexample files sha256)
VERIFY_GOLDEN = [
    (('verify', 'sat2_to_2cvc3', '--trials', '200'),
     '2bf923e4b7f0e18e100890d04726b6b81fa0b8bf56c2d4696aafd63005595d21',
     '6e421fea6009505fe5843138587c3856bdd56d7952acc9cdeb0a902aa065d7d0'),
    (('verify', 'cvc3_to_sat2', '--trials', '200'),
     '1bae9902ba09ae7a6381ca231b2ca52ce084e7e000f619d6087159f08f24c327',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (('verify', 'sat2_to_3xce2', '--trials', '200'),
     '2a937b2a8681afdaff317f25232204dd58a17a1f4bdb261e2fe3d880dbc1857a',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (('verify', 'xce2_to_2lp', '--trials', '200'),
     '9b80f269c3f9ae4c14d04126e75cf95532d7077ccba6844382ed43ebf96f2283',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (('verify', 'lp_to_2lp', '--trials', '200'),
     'd86be2ae548251fa9a935b972dfbe669c2b4da73d019a5bfd614b60436159870',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (('verify', 'twolp_to_lp', '--trials', '200'),
     '7487f886ada582c2fd702c939cc5e0ee7c7790b9a5e04ec79c5108211a718c28',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (('verify', 'le_to_xor2sat', '--trials', '200'),
     'cca8102d478917c25573095ba1b4a4c85d0bb8122a1c65910b99911031d37060',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (('verify', 'normalize_2sat3', '--trials', '200'),
     'b66a0273a9dd902448f6c04bcd3495b77e0543f2673a099f436937c8433694aa',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (('verify', 'normalize_dstcon', '--trials', '200'),
     '79ce315cede511b04f71a917a2d60c17cd0aa7336c7e23e6eaa33a11fe7bf574',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (('verify', 'dstcon_to_ap2dm', '--trials', '200'),
     'dd6c460cc216e4bf0a736990bf690e807535b9b4775c99c06f9732d8bfedb0f6',
     '5cd14a82bdf96a58d5e6d08b8e89841bc36324cbe7831bbe64edc0f54897522d'),
    (('verify', 'reduce_degree_dstcon', '--trials', '200'),
     'b541313d7e2bb402eee6edd90cc31d65f861e19e7114c484dbe34c6945610b20',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (('verify', 'bad_sat2_to_2cvc3', '--trials', '200'),
     'b8f456ee2ac32ea8b817c27f42fa2f91b7f19993a47ecc738f93585391518b17',
     'efec692b7f197523127088c71d1e56ee82e556fc89a83c6817e0aa8034908911'),
    (('verify', 'bad_cvc3_to_sat2', '--trials', '200'),
     '7aa306533af2893dfd958c3f722193fd61b1c59ad0b7326fe8c96339d5473b09',
     '6af3621b0a382c97850c84edbf1651400e25f898b6612e37ab6c33f0f2569b9d'),
    (('verify', 'bad_xce2_to_2lp', '--trials', '200'),
     'b28dbfecc8fa242ff6a7ba66792ef471e88f7c3e090e5eccffde9def882965bc',
     'e74e793353ee8fbe9f96e12211cb81b6a3d849b40ef9f04d48a0629c772b3e76'),
    (('verify', 'bad_dstcon_to_ap2dm', '--trials', '200'),
     '8ea629c0e59e84974fee215dd52c7bd739f3db1cedbc2449e9987960e0546512',
     'f6c62928fd0ea0ff0f1cc2c6712715c360ed0df0ad36b4dda8bdff75458d75b3'),
    (('verify', 'ap2dm_to_dstcon_queries', '--trials', '200'),
     '5b99e9e2ba02b40c66f1d355e92c6072cc8de55a4537acf654cfcff17f2d3510',
     'ba502cb2dcf6b5bb3a6f168607db5feaab879ecfb470dc4878b797c4f65b6929'),
    (('verify', 'sat2_to_2cvc3', '--trials', '200', '--seed', '11'),
     '17e8e8c4c47aa3f03dc93ad005ecbf81696ad623d01e4f93487a674fd00ab359',
     '4259c4365329132ec2de95131fb1aab002e40c01203fae4293a40e38fcbe0fc4'),
    (('verify', 'le_to_xor2sat', '--trials', '50', '--max-size', '6', '--seed', '7'),
     '093e5ab4a8240f44f17a6d7b580a959ea8167ca00effc55b8161f1d7483441a6',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (('verify', 'bad_xce2_to_2lp', '--trials', '100', '--max-size', '6', '--seed', '3'),
     '2160a708c5869348a1d5ce617993c0372a29f2eddc0077d177e7c8cf21406c86',
     'da0178acbc36cf5eca13afbd8f5caeaa6c7f05527dd1ea5f21b648ec44c7bb56'),
    (('verify', 'dstcon_to_ap2dm', '--trials', '50', '--max-size', '7', '--seed', '2'),
     'cf2a1c3e40a45ccb8f643cce54bce1b7535977be01358bfc02317856cbcd29f8',
     '5fa4c50068d5794d392cc6bb1d84ff404d793b43a7676e0948f52ec1817d6d91'),
    (('verify', 'ap2dm_to_dstcon_queries', '--trials', '50', '--max-size', '6', '--seed', '3'),
     '65ecc80e31ca1d4aa1b1a37ee604c4c90d14be06a24abd761c6a81b737a513ee',
     '44d11276d3215cf8beaa34f669ee7bb02fb734f00fe6215732f5ed81a1ab21f7'),
]

# (argv, stdout sha256)
FIT_GOLDEN = [
    (('fit', 'sat2_to_2cvc3', '--trials', '200'),
     'b789d9b697eaf784593aa501da1094a01058ff2b70b68e97d548e199f19a7d7c'),
    (('fit', 'cvc3_to_sat2', '--trials', '200'),
     'c96f7996c8e4ece5c0d65b172ac6dbcdda689c804e03b2582ed19e5f937b2499'),
    (('fit', 'sat2_to_3xce2', '--trials', '200'),
     'ee2a2c76e87321f1ee85288e43c7cb93bdacfb1232c25df51014395920ebce50'),
    (('fit', 'xce2_to_2lp', '--trials', '200'),
     '76b1fb5c09fb5bf212660692514c42ad71a4ff8a482674f3901a78b7b7627aba'),
    (('fit', 'lp_to_2lp', '--trials', '200'),
     '2b2ad8f329656e16a999a38edd6a51980cf264c3d5f9730c84dd4b9e2dee1bc1'),
    (('fit', 'twolp_to_lp', '--trials', '200'),
     '7b7fd3d68375f7e5a225b61c78bfffc019d02bddbc51fa2c0da2095aa3b07020'),
    (('fit', 'le_to_xor2sat', '--trials', '200'),
     '12c19fb2c5a709dc4970034b430e61ba491378ed16c42baf6f8984704310e80a'),
    (('fit', 'normalize_2sat3', '--trials', '200'),
     '62913dbd5502eb065b8aee947cfc7918b51d9d59674743c0999c00095e4a81fe'),
    (('fit', 'normalize_dstcon', '--trials', '200'),
     '7bdc3604812588c09fa1048a42355ca878775425b6c17c8befb94108722369a7'),
    (('fit', 'dstcon_to_ap2dm', '--trials', '200'),
     'c28abe3ddc04b36a3f85d3a7d49c9fce98f98989d1c4b61b007db31cddc23b46'),
    (('fit', 'reduce_degree_dstcon', '--trials', '200'),
     '2ea6b287ca0db7c2255af04482f712cfcaf71b7c50a51a1088c8e74c55a50168'),
    (('fit', 'sat2_to_2cvc3', '--trials', '200', '--seed', '4'),
     '7f8b65ef5258590a68d8a010452327d61cbaeca9d69b4ca560177340b724df0d'),
]

# (verify_T_reduction arguments, summary sha256, findings sha256)
EXPLORATORY_GOLDEN = [
    ({'trials': 200, 'seed': 5, 'max_size': 6},
     '0791bc00433433bf0d2507e3ef5692d655b443645a520b1947601645317a0a5c',
     '5945996e652ba70352afc57c3b02543dee6891f6f516eebd60767fbd51beb519'),
    ({'trials': 100, 'seed': 2},
     '5314586f73441d2da32a304c3a8370200e1aa20257e13c218a41fc626fad3c96',
     '28d7a0eeb051c7a4feb9c0be4f2bdd846a3463f321b4239f75aa6da0035f1c65'),
    ({'trials': 5, 'seed': 1, 'max_size': 1},
     '47f4dd9b5db4180c1a67de9735dd6c8a5f3cc53c899b3df9eb09ae803dcc6e9c',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _verify(argv: tuple, run_dir, capsys) -> tuple[str, str]:
    assert main([*argv, "--no-timing", "--run-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    files = "".join(f"{p.name}\n{p.read_text()}" for p in sorted(run_dir.iterdir()))
    return _sha(out), _sha(files)


@pytest.mark.parametrize("argv,stdout,files", VERIFY_GOLDEN,
                         ids=[" ".join(c[0]) for c in VERIFY_GOLDEN])
def test_verify_bytes(argv, stdout, files, tmp_path, capsys):
    assert _verify(argv, tmp_path, capsys) == (stdout, files)


@pytest.mark.parametrize("argv,stdout", FIT_GOLDEN,
                         ids=[" ".join(c[0]) for c in FIT_GOLDEN])
def test_fit_bytes(argv, stdout, capsys):
    assert main(list(argv)) == 0
    assert _sha(capsys.readouterr().out) == stdout


@pytest.mark.parametrize("kwargs,summary,findings", EXPLORATORY_GOLDEN)
def test_exploratory_bytes(kwargs, summary, findings):
    r = harness.verify_T_reduction(exploratory=True, **kwargs)
    found = "".join(f"{seed}\n{text}" for seed, text in r.findings)
    assert (_sha(r.to_text(include_timing=False)), _sha(found)) == (summary, findings)
