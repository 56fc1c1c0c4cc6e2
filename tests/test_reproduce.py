"""Golden digests of everything `scripts/reproduce.py` writes.

The digests pin the experiment's outputs byte for byte: a change to any
table, CSV, gnuplot file, manifest or line of the script's stdout shows up
here.  Manifests and stdout record the absolute output paths, so the
output directory is replaced by OUTDIR before hashing them.  A deliberate
change to an output (or to the package version, which every manifest
records) means recomputing these.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUTDIR = b"<outdir>"

GOLDEN = {
    "fivemr_four_ones.tt": "3162b8b88a84d7214c3bc9453ee8b32fee40fb8e00e5a37147b58cd5a718987b",
    "fivemr_four_ones_exact.csv": "13465630c16592ca4a0e00b73041fa74bc63d565db33ab3ecfec75b0df335bbb",
    "fivemr_four_ones_exact.csv.manifest.json": "0a14168fa7af0ddec2c8dd6e29c413789424a38184ae83c058016a0da63d5441",
    "fivemr_four_ones_exact.dat": "fec68881224742d07cb0852be23a9ecc4183682cfc8240fa82c96d517def68e2",
    "fivemr_four_ones_exact.gp": "d9be145893918b92a153d5863cd577d353fb219b7cded7970222fed89674d913",
    "fivemr_four_ones_exact.gp.manifest.json": "a0369dfacf72c97bb7e2fcd412598c7c74c21a3eef429016cd3d9a00d37c6d9b",
    "fivemr_four_ones_sim.csv": "1ac397cf9aa54e2550a34abf25f1e3de9502adc8dc1763fd5e0e73039295f62a",
    "fivemr_four_ones_sim.csv.manifest.json": "483404d4d0bcdecee055706e15e80542949a7263d1c8aefd99f2d00eb443f0a5",
    "fivemr_four_ones_sim.dat": "18c05c639d217c4a85040aeb2c2e0261d44d632841ba610262e845eed03cd6d1",
    "fivemr_four_ones_sim.gp": "573f30f5b7b3eedb8de7dadf56897de99c7052725aa4dde6af37939fc20fcb69",
    "fivemr_four_ones_sim.gp.manifest.json": "a02c41686b4a54be2c0229104a5687b6ccb130c2663d8c763ac21c12574cfd14",
    "tmr_two_ones.tt": "9569b4f98a16366f4337e4a0f6f82c94dd6723663f9bbba4edd5071d3dea8e23",
    "tmr_two_ones_exact.csv": "6fcf85c9724293ae74a4474e05a8001c5430028bb260aed872e56cca349b521d",
    "tmr_two_ones_exact.csv.manifest.json": "5fa3a5bd49f33699258275dd69bdb3efe56584d277b9a755fc75716a99a1a56a",
    "tmr_two_ones_exact.dat": "efe61e4fa7af06fb8efe625b729417fb1b96f25056b4e71933a9b1ecdeeabb9a",
    "tmr_two_ones_exact.gp": "3732803b5eb69839352141d9ce8d0e6aaa2bbaf02b5ab78f744a4174a5c07a2f",
    "tmr_two_ones_exact.gp.manifest.json": "355897a50e058aa0801b5d2529f6883407f5fa447298066d8e6c591262908941",
    "tmr_two_ones_sim.csv": "dc9d9b6a1b7b48eb92055aaf3797e716953635ed0a529f35a996bcd3c15f873b",
    "tmr_two_ones_sim.csv.manifest.json": "e3e43ced1290d946a6ecefcbf1161ec20dcf7548f33e78012a6e10eff79f4994",
    "tmr_two_ones_sim.dat": "4ed0dd291fce9f8be1ec24b573027cfdb9d3cdb8852703156d1d8ec38f9cd309",
    "tmr_two_ones_sim.gp": "f3ac87da7bbab70751f92c831b5e06f5e65c0fd52e6362d8cba6eb7012c0cdfd",
    "tmr_two_ones_sim.gp.manifest.json": "b1b880b66826b0819cc1eddbb062cef9876b39a207b509a1a9d0cf0c63acd72d",
}

# The printed voters, spot checks, crossovers and "wrote" lines.
STDOUT_GOLDEN = "805a62eb2783b9b4ea2e90791f7b0b8af6b680c0724ff70a7bf0de1a787f8a3d"


def test_reproduce_outputs_are_byte_identical(tmp_path):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce.py"), "--outdir", str(tmp_path)],
        check=True,
        capture_output=True,
        env=env,
        timeout=300,
    )
    digests = {}
    for path in sorted(tmp_path.iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            data = data.replace(str(tmp_path).encode(), OUTDIR)
        digests[path.name] = hashlib.sha256(data).hexdigest()
    assert digests == GOLDEN
    stdout = result.stdout.replace(str(tmp_path).encode(), OUTDIR)
    assert hashlib.sha256(stdout).hexdigest() == STDOUT_GOLDEN
