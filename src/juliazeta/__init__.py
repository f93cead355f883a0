"""Numerical engine for Ruelle zeta functions of hyperbolic quadratic
maps: periodic-orbit catalogs, transfer-operator determinants, resonance
counting, and Julia-set dimension."""

__version__ = "0.1.0"

from .cover import (BoxFit, CoverStats, DiskCover, backward_cover,
                    box_dimension, component_stats, cover_profile,
                    fit_box_dimension)
from .dynamics import (AffinePair, ExpansionBounds, MapSpec, Mode,
                       OrbitCatalog, PeriodicOrbitPoint, build_orbit_catalog,
                       expansion_bounds, load_catalog, save_catalog)
from .pairing import (LengthHistogram, PairingResult, TestFunction,
                      identity_residual, orbit_length_histogram,
                      orbit_side_pairing, zero_side_pairing)
from .tracecheck import (ContractionSpec, closed_form, comparison_table,
                         pullback_trace)
from .words import Word, aperiodic_necklace_count, enumerate_words
from .zeros import (CountingReport, GrowthFit, LogFamily, PolyFamily,
                    Rectangle, StripFamily, ZeroRecord, counting_report,
                    growth_exponent_probe, leading_real_zero, refine_zero,
                    scan_region, winding_number)
from .zeta import (CycleEvaluator, FredholmEvaluator, ModelEvaluator,
                   ZetaValue, model_dimension, zero_free_abscissa)

__all__ = [name for name in dir() if not name.startswith("_")]
