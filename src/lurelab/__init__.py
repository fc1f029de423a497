"""lurelab: passivity certificates, simulation and entrainment analysis
for forced Lur'e feedback loops."""

from . import apsignals, certcore, comparison, experiments, sectorcore, simcore
from .apsignals import SignalSpec, make_example_forcings, sawtooth
from .certcore import (CertificateP, DetectabilityWitness, LinearTriple,
                       QCertificate, detectability_check, hurwitz_check,
                       lmi_verify)
from .comparison import ScalarFunc, compose_gain
from .experiments import (ExperimentPreset, preset_one_mass, preset_two_mass,
                          preset_wec, run_entrainment, run_gain_ladder)
from .sectorcore import (CompactSetSpec, Nonlinearity, SectorData,
                         canonical_selection, power_law_eval,
                         sector_membership, verify_sector_hypotheses)
from .simcore import LureSystem, Trajectory, fit_exponential, simulate

__version__ = "0.1.0"
