"""Data-driven electricity rate design and robustness auditing.

Pipeline: build a population of load profiles, price the system from a
quadratic cost model, rate each user by marginal cost impact, cluster for
published tariffs (profile-based baseline or rate-band schemes), and audit
how much a strategic user can gain by disguising its profile.
"""

from .errors import (
    ConfigError,
    DegenerateCenters,
    EmptyPopulation,
    GridRatesError,
    InconsistentHorizon,
    InstanceTooLarge,
    KTooLarge,
    MalformedRow,
    PriceWarning,
    RecursionDepthExceeded,
    ZeroProfile,
)
from .model import (
    CostModel,
    PriceCurve,
    SystemLoad,
    billing_identity_check,
    mci,
    mci_matrix,
    price_curve,
    total_cost,
)
from .profiles import (
    CorpusSpec,
    IngestResult,
    Population,
    aggregate,
    commercial_spec,
    generate_corpus,
    ingest_csv,
    normalize_matrix,
    residential_spec,
    write_csv,
)
from .kmeans import kmeans_profiles, sigma
from .robust import (
    MciTable,
    criterion_check,
    gkc,
    mci_table,
    minimal_clusters_oracle,
    skc,
)
from .tariff import Tariff
from .vulnerability import (
    Efforts,
    SmoothnessReport,
    disguise_reports,
    disguised_profile,
    effort_matrix,
    measure_smoothness,
    min_switch_effort,
    smoothness_bound,
    switch_efforts,
    theta_sweep,
)

__version__ = "0.1.0"
