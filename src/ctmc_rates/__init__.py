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
    simulate_path,
    simulate_terminal,
    validate_model,
)
from .modelfile import ModelSpec, load_model, parse_model_text
from .pricing import (
    ClaimPayoff,
    arrow_debreu,
    bond_prices,
    caplet,
    floorlet,
    forward_rate,
    mc_price_claim,
    price_claim,
    price_forward_rate_option,
)
from .recovery import perron_pair, recover_generator, tipk_price
from .replication import (
    BondBasis,
    HedgePlan,
    ReplicationReport,
    replicate_paths,
)
from .two_state import TwoStateModel

__version__ = "0.1.0"
