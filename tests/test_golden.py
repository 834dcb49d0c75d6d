"""Golden digests: the sha256 of the JSONL file `run` writes for fixed
scenarios and seeds.

These pin "same behaviour" byte for byte. A change that moves a digest
changes what the simulator computes, not just how fast it computes it,
and must say why when it updates the table.

Every draw comes from an `engine.Stream`, which transforms raw PCG64
words itself, so the digests rest on numpy's PCG64 and SeedSequence
alone; NEP 19 keeps both stable, and tests/test_engine.py pins their
first draws. The digests are still keyed to the numpy major version
they were recorded under, and the test skips on any other: no numpy 1.x
was available to verify them on, and NEP 50 changed the integer
promotion rules that the uint8 arithmetic relies on.
"""

import hashlib

import numpy as np
import pytest

from mscsim.config import parse_config
from mscsim.runner import run

NUMPY_MAJOR = int(np.__version__.split(".")[0])

SEEDS = (1, 20240)

# One scenario outside the presets: both phases interleaved, a lossy
# downlink and a wide generation, so the decoder runs at large g with
# rank-deficient members and recoding from partial state.
WIDE_PARALLEL = """\
[scenario]
preset = ambulance
sessions = 3
[nodes]
ue_count = 4
[ncc]
phase_mode = parallel
generation_size = 128
redundancy = 1.2
[links]
cellular_loss = 0.05
"""

# Odd shapes: g = 7 and 13-byte payloads, so no draw of the coding
# stream fills whole 32-bit words, over three generations with both
# links lossy; once in each phase mode and once as lossy unicast.
ODD_SHAPES = """\
[scenario]
preset = ambulance
sessions = 3
[ncc]
generation_size = 7
payload_bytes = 13
generations = 3
phase_mode = {mode}
protocol = {protocol}
[links]
cellular_loss = 0.2
shortrange_loss = 0.15
"""

# The handover comparison with credentials in the 2048-bit group, the
# only golden scenario that signs and verifies at full size. Its digests
# were recorded with the radix-16 fixed-base rows the comb replaced.
HO_2048 = """\
[scenario]
preset = ho-comparison
[handover]
epochs = 300
[km]
group = 2048
requesters = 2
"""

SCENARIOS = {
    "ambulance": "[scenario]\npreset = ambulance\n",
    "baseline-unicast": "[scenario]\npreset = baseline-unicast\n",
    "ho-comparison": "[scenario]\npreset = ho-comparison\n",
    "km-bootstrap": "[scenario]\npreset = km-bootstrap\n",
    "wide-parallel": WIDE_PARALLEL,
    "odd-sequential": ODD_SHAPES.format(mode="sequential", protocol="ncc"),
    "odd-parallel": ODD_SHAPES.format(mode="parallel", protocol="ncc"),
    "odd-unicast": ODD_SHAPES.format(mode="sequential", protocol="unicast"),
    "ho-2048": HO_2048,
}

# numpy major version -> (scenario, seed) -> sha256 of the records file
GOLDEN = {
    2: {
        ("ambulance", 1):
            "878c9d32b301065c9a2f206052854115c9059847d74399fd37086a4e831c5904",
        ("ambulance", 20240):
            "cf4091ef143fcc4e63bbbc84c7d8bfa57db51081408ea8aa69335f776eb6765c",
        ("baseline-unicast", 1):
            "577da9be1dcc366ea44fc6ef5464acd891b41f74521f24d822232d16e370f4d9",
        ("baseline-unicast", 20240):
            "0002dd81a47acbceafc87539be4a176d3be1317a185aa19cb527353173cc720f",
        ("ho-comparison", 1):
            "904043c23ea78058602b70fce743f6c01dc7da7687636b3f02426d241370ff88",
        ("ho-comparison", 20240):
            "f01118305aa2779d70428122e59db7c194c4d4091e08475b8263b75ce2d80c0d",
        ("km-bootstrap", 1):
            "585bcadd6f8e889f2b13a68045545c026c26f1adb17e48de794bd09f005a080a",
        ("km-bootstrap", 20240):
            "125e10a65bbc03b1294d29497aa8d0e782989244d600e367444e126c71c1730f",
        ("wide-parallel", 1):
            "bcd94d6011a6e5dc1bd6a08c9196162712e437b6fccf601e5bbee7e1dd89164c",
        ("wide-parallel", 20240):
            "a12a00c39e37a4f2597ccbe6aa5d757b23586876e6921c66e8bfb22fda4cd778",
        ("odd-sequential", 1):
            "19e0b5b394e8675b776c5b12911455b664cbccb3dce6f06a61e2ea8cd122c1b6",
        ("odd-sequential", 20240):
            "df9ba9111b5d1d97a9f56f4ad04375025a821e03f4c8e6a5b673a2c51c10fa4c",
        ("odd-parallel", 1):
            "4fd186190b44a04c08255cc2ec102ec8955ee12299acc2621b7c873e13a4cdba",
        ("odd-parallel", 20240):
            "d3828cfd061975852874a17e0a46539106042a667bb5e59df7eace2bcc4a55eb",
        ("odd-unicast", 1):
            "be0d4ddc197c296a83b99085ff42728ff3197f5aae3cd8230d7bd949586d406f",
        ("odd-unicast", 20240):
            "fb3583862b220a263322ba48d100c166de236acc0abcb4b6c6bba64e96bf949a",
        ("ho-2048", 1):
            "04118dd14d9ae774e9fd5b7999e7b445b5a4bc06bcaf1a97757c363d192731f6",
        ("ho-2048", 20240):
            "a89de2f8ac254371966eac2a852b7ec81f6ec1329884a6aeb40aa3854113963e",
    },
}


def records_digest(text: str, seed: int, tmp_path) -> str:
    out = tmp_path / "records.jsonl"
    result = run(parse_config(text, seed=seed), str(out))
    assert result.exit_code == 0, result.records[-1]
    return hashlib.sha256(out.read_bytes()).hexdigest()


# no run builds a slot object: the digests hold with `SlotRecord` unbuildable
@pytest.mark.usefixtures("no_slot_records")
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_records_digest_is_pinned(name, seed, tmp_path):
    if NUMPY_MAJOR not in GOLDEN:
        pytest.skip(f"digests recorded under numpy major {sorted(GOLDEN)}; "
                    f"numpy {np.__version__} may draw different streams (NEP 19)")
    assert records_digest(SCENARIOS[name], seed, tmp_path) == \
        GOLDEN[NUMPY_MAJOR][(name, seed)]
