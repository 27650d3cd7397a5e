"""Pricing, replication and real-world recovery for CTMC-driven short rates."""

from .errors import (
    CtmcRatesError,
    ModelFileError,
    ModelValidationError,
    RecoveryHypothesisError,
    UnhedgeableBasisError,
)
from .model import (
    ChainPath,
    GeneratorMatrix,
    RateMap,
    StateSpace,
    ValidationReport,
    integrate_rate,
    matrix_exponential,
    simulate_path,
    simulate_terminal,
    transition_matrix,
    validate_model,
)
from .modelfile import ModelSpec, load_model, parse_model_text
from .policy import DEFAULT_POLICY, NumericPolicy
from .pricing import (
    ClaimPayoff,
    arrow_debreu,
    bond_price,
    bond_prices,
    caplet,
    floorlet,
    forward_rate,
    mc_price_claim,
    price_claim,
    price_forward_rate_option,
    zero_yield,
)
from .recovery import (
    PerronPair,
    perron_pair,
    radon_nikodym_along_path,
    recover_generator,
    tipk_price,
)
from .replication import (
    BondBasis,
    HedgePlan,
    ReplicationReport,
    replicate_on_path,
    replicate_paths,
)
from .two_state import TwoStateModel

__version__ = "0.1.0"
