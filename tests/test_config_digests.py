"""Every shipped config writes the bytes of the digest table, at workers 1 and 2.

DIGESTS holds the sha256 of each CSV, each summary.json and the printed
report of every config in configs/; manifest.json holds wall times and is
left out.  A change that moves any of these bytes is a drift: name it in
CHANGES.md and update the table with the digests the failure prints.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from fractdim import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))

DIGESTS = {
    "cantor_dimension/box.csv":
        "efad2ccf42c8d3b9a6713064b2f8d3f70545e4d4f04f7390797ac417c241638c",
    "cantor_dimension/correlation.csv":
        "39001326ba2ee43e5dbdbced1bed89a4b1961e42e5e527973b07184decbdd9d7",
    "cantor_dimension/energy.csv":
        "ccde21da8d97a7cf7b7ade9306c7675580bbf2ee751e2acae4f077e75e14dfc8",
    "cantor_dimension/stdout":
        "5cd02c520c5781fff235f199a795043c1d7ec86dd142a834c1aad7a49799c8e9",
    "cantor_dimension/summary.json":
        "e48f5239f3f3086c1c7b3a714b95f582ea3ae66b44472e0250ef35c212d0dd4d",
    "cantor_separation/holder.csv":
        "e8dc3f343161aaa4d6c7f9ca1f2c8ce7425b55291b7d904c29512a2b46fd02de",
    "cantor_separation/stdout":
        "c6caa768f9f461256e7d9897d1f05beb470e952c7bfb7b70d82dde3962fbc7d8",
    "cantor_separation/summary.json":
        "06f2f915fb73ecb4f48961091ee608eca2cec96154d6ab48fe3fdd8e63a18ab7",
    "cantor_separation/verdicts.csv":
        "36b5b5a1730ca07b288d040c2ac202a5b70da81214b72ac6024490c299177848",
    "cantor_spectrum/coarse.csv":
        "62715851975269da928af7782e88a56d05ab5fbe8b2b4d6f735e1ed510a32a82",
    "cantor_spectrum/stdout":
        "2f38dec657a56c0586eec2e5d0144eb183d8ca430d10f6edf687f5b9b8f9d2d1",
    "cantor_spectrum/structure.csv":
        "07818d91deefe0159d853eb075e3125c5d5f0ce7e9c1367801a9b2f9d114b06e",
    "cantor_spectrum/summary.json":
        "2aacd22152a9a0ae0693813e650a9ad9063c0c2f42077fffff01e696300267ac",
    "gibbs_bounds/bounds.csv":
        "632210dd2a4ff1113c969580ce5a73b1eab6c9a59a64f0ac618a7aa45725bae8",
    "gibbs_bounds/stdout":
        "6af9e6e26dba55e1c20668c3c377de5c02198d17ca70056b8e8cbce9098660fe",
    "gibbs_bounds/summary.json":
        "dbcb2e41303b63b2f67dead9b5ad658bfd3f9c655a343b4c6175fc98bd799dc9",
    "markov_approximation/approx.csv":
        "f0eb02d4197b708f0159d93610f85719ae8c7da4178517b20f2f9745c40e3d94",
    "markov_approximation/stdout":
        "88d154d8cd4cded5cd8c3788757292d90462c15a8772ee73aa966ea0d91a6d62",
    "markov_approximation/summary.json":
        "c80f2c823a2ec94b401275fdff4954a5cce1e7782d41f5c1f262ee4c33f3d8de",
    "marstrand_projection/directions.csv":
        "857fbb6c6fb285d9796569f05b59d52b2d7874ec9b049191e419a4cf69cdf152",
    "marstrand_projection/stdout":
        "e09a67e764b402edda5ae1b7c1bfd6679abac6add89d57291767a7d5b6d5a4fd",
    "marstrand_projection/summary.json":
        "bc3fb7f727f2b62d85a350870db55122a504c549114a0edf760f0d0d50d8e816",
    "transversality_family/decay.csv":
        "50e42566c5abf682abfcecaa6ff749118b50c80cba01d38f10d5219f9fe86da5",
    "transversality_family/stdout":
        "c92e7e0d1ba1cd3c2ff32a929ba8c026c7b134c710b7f91cfd6529a8ed595864",
    "transversality_family/summary.json":
        "493fc343f8663ecc01e411f2c95f34ebd86c02ed0b3ad92f6485db5455e6a6a5",
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_table_covers_every_config():
    assert sorted({key.split("/")[0] for key in DIGESTS}) == CONFIGS


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", CONFIGS)
def test_artifacts_match_digest_table(tmp_path, name, workers):
    out = tmp_path / "out"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.run(ROOT / "configs" / f"{name}.json", out, workers=workers)
    assert code == 0
    got = {f"{name}/stdout": sha256(printed.getvalue().encode())}
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            got[f"{name}/{path.name}"] = sha256(path.read_bytes())
    want = {key: value for key, value in DIGESTS.items() if key.split("/")[0] == name}
    drift = [
        f"{key}: {got.get(key, 'not written')}"
        for key in sorted(got.keys() | want.keys())
        if got.get(key) != want.get(key)
    ]
    assert not drift, (
        f"artifacts of {name} at workers {workers} left the digest table; "
        "a drift must be named in CHANGES.md. New digests:\n" + "\n".join(drift)
    )
