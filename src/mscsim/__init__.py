"""Deterministic simulator for network-coded cooperative mobile small cells.

Subpackages and modules:

* ``gf256``   - GF(2^8) arithmetic (log/antilog tables, vector helpers)
* ``rlnc``    - random linear network coding: encoder, recoder, decoder
* ``engine``  - seeded streams, link models, transmission and energy accounting
* ``topology``- nodes, mobility, small-cell formation and head election
* ``handover``- uplink-reference-signal vs. baseline handover accounting
* ``ncc``     - two-phase network-coded cooperation protocol
* ``keymgmt`` - threshold key management (shares, credentials, certificates)
* ``config``  - scenario files, presets, validation
* ``runner``  - scenario execution and metrics records
* ``cli``     - command line entry point
"""

__version__ = "0.1.0"
