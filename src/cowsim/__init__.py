"""Simulator of the coherent one-way QKD protocol and the AND-mask attack."""

from .alice import (
    DECOY,
    DecoyStrategy,
    Train,
    generate_raw_bits,
    insert_decoys,
)
from .bob import receive
from .engine import (
    Attack,
    CompareResult,
    RunStats,
    SimConfig,
    compare_attack,
    run,
    sweep_mu,
)
from .eve import (
    EveRecord,
    apply_and_mask,
    generate_mask,
    observe_transcript,
    reconstruct_key,
)
from .optics import click_probability, detectable_fraction, splittable_fraction
from .sifting import SiftResult, Transcript, run_sifting

__version__ = "0.1.0"
