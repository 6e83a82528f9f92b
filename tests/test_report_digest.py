"""Golden digests of the --out report, so refactors keep it byte-identical.

Each digest is the sha256 of the canonical JSON report with ``timings``
dropped. A change that alters any check name, parameter, residual
rendering or verdict changes the digest; a deliberate change must update
the table and say why.
"""

import hashlib
import json

import pytest

from twophoton import cli

GOLDEN = {
    ("--order", "0"): "e9323135d00484700c1e535e896598c5a0d9defed27de118bfad73396233c541",
    ("--order", "1"): "f10948056f206fc9c6f8d9233e169e6184b1f05825e961839cc950dad6fa082b",
    ("--order", "2"): "a471d05db7d6834749ee66277c6dc8376ffead1614382907a555789209283a13",
    ("--rep-param", "0", "--order", "2"):
        "81e0c6da84900d1855f118d21ebcd9da6cdcce7547ae09c59b7d0a7ef3020fbb",
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
