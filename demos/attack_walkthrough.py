"""Walk through one attacked key exchange, slot by slot and then at scale.

Run: python3 demos/attack_walkthrough.py
"""

import numpy as np

from cowsim import alice, bob, eve
from cowsim.alice import DECOY, SlotMap
from cowsim.bob import DetectionMode
from cowsim.engine import Attack, SimConfig, compare_attack, run
from cowsim.eve import EveMask

# --- the six-slot worked example -------------------------------------------
# Alice sends 0, 0, 1, 1 and two decoys; Eve's pattern is 0, 1, 0, 1, 0, 1.
slot_map = SlotMap(np.array([0, 0, 1, 1, DECOY, DECOY]))
mask = EveMask(np.array([0, 1, 0, 1, 0, 1]))

train = alice.encode(slot_map)
sent = eve.apply_and_mask(train, mask)

(slots, values), _ = bob.receive(
    sent,
    SimConfig(channel_t=1.0, t_b=0.9, detection_mode=DetectionMode.DETERMINISTIC),
    np.random.default_rng(0),
)
decoded = dict(zip(slots.tolist(), values.tolist()))

print("slot  alice  eve  bob")
for s in range(slot_map.n_slots):
    a = "d.s." if slot_map.is_decoy[s] else str(slot_map.codes[s])
    b = str(decoded.get(s, "n.d."))
    print(f"{s:4d}  {a:>5}  {mask.bits[s]:3d}  {b:>4}")
print()

# Bob only ever detects slots where his bit agrees with Eve's; the two
# surviving data slots (0 and 3) read identically on all three sides.

# --- a full-size run --------------------------------------------------------
config = SimConfig(n_bits=100_000, attack=Attack.AND_MASK, seed=7)
stats, transcript, record = run(config)
print(f"slots sent          {stats.slots_sent}")
print(f"sifted key length   {stats.sifted_len}")
print(f"QBER                {stats.qber}")
print(f"Eve's recovery      {stats.eve_recovery_fraction:.3f}")
print(f"monitor break rate  {stats.break_rate:.5f} -> verdict {stats.verdict}")
print()

# The monitor line is the only tell: broken coherence fires it, so the run
# aborts -- but Eve's copy of the key is already perfect.

# --- what the attack costs in rate ------------------------------------------
result = compare_attack(SimConfig(n_bits=100_000, seed=2))
print(f"sifted-rate ratio (attack / no attack): {result.rate_ratio:.3f}")
print(f"Eve's recovery without the mask:        {result.recovery_no_attack:.3f}")
print(f"Eve's recovery with the mask:           {result.recovery_attack:.3f}")
