"""Broadband direction-of-arrival estimation for line arrays.

Pipeline: simulate or load a multichannel record, transform frames to
narrowband frequency-bin snapshots, fit a sparse covariance model per bin
(q-SPICE family), fuse bins into a broadband bearing spectrum, and refine
peak locations off-grid. A Monte Carlo harness benchmarks the estimators
against CBF and MUSIC baselines, and a small physics utility models the
pressure sensitivity of a spiral-wound sensing cable.
"""

from .arrays import ArrayGeometry, Dictionary, angle_grid, build_dictionary, \
    half_wavelength_spacing, perturb_geometry, steering_matrix, \
    steering_stack, uniform_line_array
from .bench import BenchResult, BenchRow, PRESETS, ScenarioConfig, \
    pair_errors, rmse, run_monte_carlo, run_trial, success_ratio, \
    timing_ratios
from .broadband import BearingTimeRecord, broadband_estimate, broadband_gnr2, \
    broadband_spectrum, btr, fuse_spectra
from .cable import FiberSpec, MandrelSpec, cable_sensitivity, \
    mandrel_radial_displacement, phase_change, pressure_sensitivity, \
    sensitivity_from_phase
from .errors import ConfigError, DataError, DegenerateInputError, \
    EstimationError, ParseError, SingularModelError, ToolkitError, \
    UnsupportedModelError
from .estimators import PowerVector, SolverConfig, SolverResult, \
    SpatialSpectrum, cbf_spectrum, fixed_grid_spectrum, kkt_residual, \
    music_spectrum, objective_value, peak_pick, qspice_solve, spice_weights
from .frontend import BinSnapshots, FrequencyBinSet, band_for, \
    band_transform, bin_covariances, dft_vector, frame_count, \
    sample_covariance, select_bins
from .recordio import load_config, load_record, render_table, save_record, \
    save_table, save_timing_table, scenario_from_dict, write_gnuplot
from .refine import RefineConfig, RefineResult, gnr2_estimate, refine_loop
from .simulate import NoiseModel, SnapshotMatrix, SourceSpec, generate_noise, \
    generate_sources, harmonic_lines, measure_snr, propeller_waveform, \
    sample_sas, synthesize

__version__ = "0.1.0"
