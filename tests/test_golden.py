"""Golden digests: the sha256 of the JSONL files `run` writes for fixed
scenarios and seeds, the records file of each and the `--trace` file of
three.

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
            "91ffbd4ea8f030bf39309a1df05aa6a2c2fbbe93322266bcee32fa8b25204682",
        ("ambulance", 20240):
            "12e047961026b1526d1d1cd88f52da35ed66b5385d2a258913ac51d56305acfb",
        ("baseline-unicast", 1):
            "4ae20d1e7ec31b9bacf158c8a632a7d0bf4b31067947fba1d960e9f4465163a4",
        ("baseline-unicast", 20240):
            "8ddde86fc29355a090e625961059c16f6fcdc4761f3a007c54898ab3279bd5fb",
        ("ho-comparison", 1):
            "60662e65767c3e1a797869355f439a4a0cf57ab0406be077ffd590b55dafd919",
        ("ho-comparison", 20240):
            "6a96f87f851e68512222dc5c56985efd88d90232adced91759c7705f27460c05",
        ("km-bootstrap", 1):
            "c83dd3f3bc9c11eba477b1f5ba2f10307baa124f831d612df45b1648c36137bb",
        ("km-bootstrap", 20240):
            "d38c374113dcaaab86937615c248288301909d34f0592bd7355065365e1c8f44",
        ("wide-parallel", 1):
            "48ffe1156e27ffe4a60217c283bbbc5c1f967fb8a2767bcb11ec712e87982644",
        ("wide-parallel", 20240):
            "42768016d633d49d5ff212aa695b7e78b0e389ff9ab11945e6ee5049fded7944",
        ("odd-sequential", 1):
            "44ab4f0bc5ee293e137f34cecb1becc216652b091ce8f4e8c52af52bed660559",
        ("odd-sequential", 20240):
            "08e4b30ef46d608a102de0714dbab97049b83e799abac0a7c09a2dc618fa6268",
        ("odd-parallel", 1):
            "68acf58abfdd33e8b5cf0224c56cc83812cedd6ef23f2438d5792048f3842686",
        ("odd-parallel", 20240):
            "0370033ec9218d890b006ea4ab006a2c34b351c88823b33151d30cf90181cbb6",
        ("odd-unicast", 1):
            "f1591a8b1c2f5abeb2dcce25bf58ecd2d6134de501640e42675e04f4dddfcdac",
        ("odd-unicast", 20240):
            "d72531667e023e1ddd3d1ee529f4a244daf12c5fc83e684a59b33189a67b08c7",
        ("ho-2048", 1):
            "1644d07ea7c6f1a0e5266b632a7f968e4587a88941256d9cd929f24e0243b06b",
        ("ho-2048", 20240):
            "177ea0c9692f94cef8d37aa8e04b5f8384bf3216f741b6c2ae81d4b08911ddde",
    },
}


# the slot trace of one scenario per session driver: sequential coded,
# parallel coded and lossy unicast
TRACED = ("ambulance", "wide-parallel", "odd-unicast")

# numpy major version -> (scenario, seed) -> sha256 of the `--trace` file
GOLDEN_TRACE = {
    2: {
        ("ambulance", 1):
            "4b57c5cbf116678ac79a6b1002ebf985c43273c8e773b5580398d3c2ce009fe2",
        ("ambulance", 20240):
            "45866cd67f832204f552f961a8a903a8abc071cc8b76ed684c8d8f4820eb7b6c",
        ("odd-unicast", 1):
            "8dcf0778d49f7485ffbb9e872de8041eeffa5dcb327e0e45680dd4cc1f30ccb9",
        ("odd-unicast", 20240):
            "d5e8f0ed60338d8090457c44a0e6995fcb4e0db89a49d9262e065ed18f1c4f24",
        ("wide-parallel", 1):
            "a4c376684c89406aedb472a349cd978ef8631c7013b54810ed6df46dc0226036",
        ("wide-parallel", 20240):
            "0cbfd13ee729338a4cdf069cc071a9d13d85b0271fed0054e1c875143b37121d",
    },
}


def _pinned(table: dict) -> dict:
    """The digests recorded under this numpy major; skip under any other."""
    if NUMPY_MAJOR not in table:
        pytest.skip(f"digests recorded under numpy major {sorted(table)}; "
                    f"numpy {np.__version__} may promote the uint8 arithmetic "
                    "differently (NEP 50)")
    return table[NUMPY_MAJOR]


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
    golden = _pinned(GOLDEN)
    assert records_digest(SCENARIOS[name], seed, tmp_path) == \
        golden[(name, seed)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TRACED)
def test_trace_digest_is_pinned(name, seed, tmp_path):
    golden = _pinned(GOLDEN_TRACE)
    trace = tmp_path / "trace.jsonl"
    result = run(parse_config(SCENARIOS[name], seed=seed),
                 trace_path=str(trace))
    assert result.exit_code == 0, result.records[-1]
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == \
        golden[(name, seed)]
