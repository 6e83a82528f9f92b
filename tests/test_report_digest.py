"""Golden digests of the --out report and the spec dump, so refactors keep them byte-identical.

Each report digest is the sha256 of the canonical JSON report with
``timings`` dropped. A change that alters any check name, parameter,
residual rendering or verdict changes the digest; a deliberate change must
update the table and say why. The spec digests cover the relation,
coproduct, antipode and counit tables that ``--dump-spec`` writes.
"""

import hashlib
import json

import pytest

from twophoton import cli

GOLDEN = {
    ("--order", "0"): "0a93943599b4dc44299d2f846296a0ad58fc22303dff36e0a8452f97f272849c",
    ("--order", "1"): "a43bc08fdc9feb2f99d3ed5e160f088289a23eab56669847adc7025045bccc2f",
    ("--order", "2"): "3a0234e95147959bbd9aaf480b84a592fbda8660e4d9bbc10e0180170fb20dbb",
    ("--rep-param", "0", "--order", "2"):
        "fe18eae5043aa73dafabcca5b32914c7db16240c4dcde294ced3b7357af10f22",
    # PBW rewriting of long words: up to 11 letters in the rmatrix checks
    ("--checks", "rmatrix", "--order", "4"):
        "fc0170a5024e94d7d891a12e92cc44bffc8c4cb2f15223db0370c0eb15490104",
    # the R-matrix identities on words of up to 14 letters: the rmatrix-k5 workload
    ("--checks", "rmatrix", "--order", "5"):
        "88f22ffc6c4cbd771b5ef549e8343b3f842412244f99b386967414e9787ec03f",
    # the Hopf axioms on long coproduct and antipode words: the hopf-k8 workload
    ("--checks", "bialgebra,hopf", "--order", "8"):
        "0bf7c95c4fabccbe44b359be2e1a1000c504dc2dcea6b8955dd69cd88e99a612",
    # realizations, a degree-400 solve and the lattice at a = 0, whose 18
    # failing conformal C residuals fill the report: the lattice-k8 workload
    ("--checks", "rep,eigen,discrete-se", "--order", "8", "--degree", "400",
     "--beta", "1,1,1,1,1", "--eigenvalue", "1/3+1/2i", "--rep-param", "0"):
        "317e198a4b84fd3293ec07072f25c5ed56034e3dac059f556091e1bdc49e7256",
    # the lattice layer away from the defaults z = 1/10, m = 1: its 18
    # failing conformal C residuals at a = 2/7 fill the report
    ("--checks", "discrete-se", "--z", "7/3", "--mass", "3", "--rep-param", "2/7"):
        "10a13db2e4f817dee7ad03ffe82e4a98d973d20ce505b9d5c7b659cd57a2b761",
    # a degree-400 complex series solve: its coefficients fill the report
    ("--checks", "eigen", "--degree", "400", "--beta", "1,1,1,1,1",
     "--eigenvalue", "1/3+1/2i", "--order", "2"):
        "fe0d9e292dd1d7d66f03f230430a34c88cd544d1d4027d75ad3f5b4e97888f3f",
    # complex betas: the eigenproblem's imaginary operator is more than a
    # multiple of M, so both parts of its solve are pinned
    ("--checks", "eigen", "--beta", "1/2,-i,1/3,1+i,-2/3i", "--eigenvalue", "i",
     "--order", "3", "--degree", "40"):
        "6b5f67201fb93d81112958bd1be8aea736fd31060c1f94e292df86175b70800a",
}


@pytest.mark.parametrize("args", sorted(GOLDEN), ids=" ".join)
def test_report_digest(args, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(["--algebra", "both", *args, "--out", str(out)])
    capsys.readouterr()
    assert rc == (1 if "--rep-param" in args else 0)
    report = json.loads(out.read_text())
    report.pop("timings")
    digest = hashlib.sha256(cli.canonical_json(report).encode()).hexdigest()
    assert digest == GOLDEN[args]


# per order: the rows' lo and zshift truncate the exponentials differently
# at low orders, which the order-8 dump does not see
SPEC_GOLDEN = {
    "h6": {
        0: "e84719653dada5e72387c76534fb0d4e411cda8b4481d6f1e43620d27bc34f7f",
        1: "1468242b56e84799e7f2b0f53fcc61538d784036edb093b400b4fb2b680d65ef",
        2: "47a6e7ba25ce9c2b9fd481f88b69e1b942c91279bb60fe38a362ac52d85d19ec",
        3: "752a876dbd645814d42cf81703673e0d460e6afa7ec585f5ffd9510cbf15f8ec",
        4: "5e3d67c4605e0b68d2ce57ea27dbe704ea652b222bc99909769150baeac5a804",
        5: "504dbaa9a242853760a3223a6e0df4a47e23fb9cda5990e62726e1b7d2b457d9",
        6: "4502d7446a0d126d9901343c8190e6f2819b91d4ba78239306092b69fb0447e5",
        7: "b392dd7b7652ce3a8eb6204a629d84ec5410d5511e0ef9b18a5d427bcf799bd6",
        8: "a630caf757e320f005ba6b28c53b35a3acb5e6b7ddb34bad1976602372993982",
    },
    "sch": {
        0: "e916d449823b9895bd2eacc212dfc0fd84f0ce3104cbb27f58fd10c787ba151f",
        1: "766b8cb186ac265f529d5cd0c5aeaaade31ddb455adccfba9dd78a25a8c53f8b",
        2: "5cef2137410bd224230682443b592afb281b83084b3ff81f5b1a9bd3d8c62a93",
        3: "b0e8afc1d2f2e38adbe68551604a15f0ebf8a4939d2ed5b6c1c2d457178c8da0",
        4: "ec7af7a3bbd40f9635a7a1d84d5c0c343901a0f0e6cb0568db424c22f9f4ae23",
        5: "160e2aa534c17653c318774929c930df4d142250de4849940bb543367d5de398",
        6: "5ab3e9eff6f8944439f8c8f916f762d047c6b7e0836a7100f6c00a839c54915d",
        7: "d178f39992f57d6fc8342d341e5cda4fcead28e4003d706116b765ec337aebb3",
        8: "9f1b912fc0342a6b9965b01b811874fbb12ebc6de22b4c8921a8b0330bc13418",
    },
}


@pytest.mark.parametrize("which", sorted(SPEC_GOLDEN))
def test_spec_dump_digest(which, capsys):
    for order, golden in SPEC_GOLDEN[which].items():
        assert cli.main(["--dump-spec", which, "--order", str(order)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == golden, order


@pytest.mark.parametrize("which", sorted(SPEC_GOLDEN))
def test_tables_read_after_other_products_match_the_dump(which):
    # the coproduct and antipode tables are made on first read, when the
    # memo may already number other words; the tables must not depend on it
    *_, quantum = cli.ALGEBRAS[which]
    for order, golden in SPEC_GOLDEN[which].items():
        alg = quantum(order)
        assert not alg._nf_cache
        gens = [alg.gen(x) for x in alg.generators]
        assert gens[-1] * gens[0] * gens[1]
        digest = hashlib.sha256(cli.canonical_json(alg.to_json_dict()).encode()).hexdigest()
        assert digest == golden, order
