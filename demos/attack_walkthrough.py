"""Walk through one attacked key exchange, slot by slot and then at scale.

Run: python3 demos/attack_walkthrough.py
"""

from cowsim.engine import Attack, SimConfig, compare_attack, run, table1_rows

# --- the six-slot worked example -------------------------------------------
# Alice sends 0, 0, 1, 1 and two decoys; Eve's pattern is 0, 1, 0, 1, 0, 1.
rows, matches = table1_rows()
print("slot  alice  bins  eve  bins  received  bob")
for s, (alice_ib, alice_tbs, eve_ib, eve_tbs, received_tbs, bob_ib) in enumerate(rows):
    print(
        f"{s:4d}  {alice_ib:>5}  {alice_tbs:>4}  {eve_ib:>3}  {eve_tbs:>4}"
        f"  {received_tbs:>8}  {bob_ib:>4}"
    )
print(f"matches the paper's Table 1: {matches}")
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
