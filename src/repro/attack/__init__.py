"""The cold boot attack toolkit — the paper's first contribution.

Layered exactly as §III presents it: litmus tests identify scrambler
keys in dumps, the miner collects and repairs them, the AES search
finds expanded key schedules one 64-byte block at a time, and the
pipeline ties it together into the VeraCrypt master-key recovery.
DDR3 frequency analysis and the classic Halderman plaintext search are
included as the baselines the DDR4 attack is measured against.
"""

from repro.attack.adaptive import (
    AdaptiveBudget,
    AdaptiveRecovery,
    AdaptiveRecoveryEngine,
    BudgetStage,
    DecayEstimate,
    estimate_decay_rate,
    triage_regions,
)
from repro.attack.aes_search import (
    AesKeySearch,
    AesVariant,
    RecoveredAesKey,
    ScheduleHit,
    confidence_score,
    exhaustive_hits,
    reconstruct_schedule,
    repair_observed_table,
    vote_correct_table,
)
from repro.attack.equations import (
    consistent_with_invariants,
    invariant_manifold_dimension,
    invariant_system,
    minimum_known_bits_for_unique_key,
    solve_key_from_known_plaintext,
)
from repro.attack.coldboot import TransferConditions, cold_boot_transfer, reverse_cold_boot
from repro.attack.ddr3_attack import (
    Ddr3ColdBootAttack,
    FrequencyCandidate,
    block_frequency_analysis,
    descramble_with_universal_key,
    recover_universal_key,
)
from repro.attack.keyfind import KeyfindMatch, find_aes_keys, unique_master_keys
from repro.attack.keymine import (
    DEFAULT_SCAN_LIMIT_BYTES,
    CandidateKey,
    keys_matrix,
    mine_scrambler_keys,
)
from repro.attack.litmus import (
    INVARIANT_WORD_OFFSETS,
    SUB_WORD_OFFSETS,
    key_litmus_mismatch_bits,
    litmus_parity_matrix,
    litmus_pass_mask,
    passes_key_litmus,
)
from repro.attack.parallel import (
    ScanReport,
    Shard,
    merge_recovered,
    resilient_recover_keys,
    shard_image,
)
from repro.attack.pipeline import AttackConfig, AttackReport, Ddr4ColdBootAttack
from repro.attack.report import (
    REPORT_SCHEMA_VERSION,
    report_to_dict,
    report_to_markdown,
    save_report_json,
)
from repro.attack.sweep import (
    AblationResult,
    FaultSweepPoint,
    SweepPoint,
    ablate_search,
    attack_success_sweep,
    fault_recovery_sweep,
    synthetic_dump,
)

__all__ = [
    "DEFAULT_SCAN_LIMIT_BYTES",
    "INVARIANT_WORD_OFFSETS",
    "SUB_WORD_OFFSETS",
    "AdaptiveBudget",
    "AdaptiveRecovery",
    "AdaptiveRecoveryEngine",
    "AesKeySearch",
    "AesVariant",
    "BudgetStage",
    "DecayEstimate",
    "REPORT_SCHEMA_VERSION",
    "AblationResult",
    "AttackConfig",
    "AttackReport",
    "CandidateKey",
    "Ddr3ColdBootAttack",
    "Ddr4ColdBootAttack",
    "FaultSweepPoint",
    "FrequencyCandidate",
    "KeyfindMatch",
    "RecoveredAesKey",
    "ScanReport",
    "Shard",
    "SweepPoint",
    "ScheduleHit",
    "TransferConditions",
    "block_frequency_analysis",
    "cold_boot_transfer",
    "confidence_score",
    "consistent_with_invariants",
    "estimate_decay_rate",
    "invariant_manifold_dimension",
    "invariant_system",
    "descramble_with_universal_key",
    "exhaustive_hits",
    "fault_recovery_sweep",
    "find_aes_keys",
    "key_litmus_mismatch_bits",
    "keys_matrix",
    "litmus_parity_matrix",
    "litmus_pass_mask",
    "merge_recovered",
    "mine_scrambler_keys",
    "minimum_known_bits_for_unique_key",
    "solve_key_from_known_plaintext",
    "passes_key_litmus",
    "reconstruct_schedule",
    "repair_observed_table",
    "recover_universal_key",
    "resilient_recover_keys",
    "shard_image",
    "ablate_search",
    "attack_success_sweep",
    "report_to_dict",
    "report_to_markdown",
    "reverse_cold_boot",
    "save_report_json",
    "synthetic_dump",
    "triage_regions",
    "unique_master_keys",
    "vote_correct_table",
]
