"""Motion/force control stack for an underactuated aerial manipulator
pressing on a tilted surface: plant simulation, surface-parameter
estimation, reference smoothing, DOB-based switching control and
stability-based force-gain scheduling."""

from .plant import (DisturbanceConfig, MeasurementNoise, Measurement,
                    PlantConfig, PlantState, SurfaceModel, contact_force,
                    measure, step)
from .estimator import ContactDetector, EnvEstimate, RlseConfig, rlse_update
from .reference import ReferenceState, contact_step, free_step, switch_mode
from .controller import (DOBState, GainSet, InfeasibleInput, compose_u,
                         control_force, control_motion, dob_estimates,
                         dob_update, extract_inputs, invert_inputs)
from .scheduler import (DegenerateDirection, GainBox, GainRegion,
                        ScheduleResult, SwitchedParams, check_no_switch,
                        j_cost, lambda_pair, pattern_search_J, region_explicit,
                        region_grid, schedule, switched_params)
from .harness import (RunLog, Scenario, bench_scheduler, metrics, preset,
                      run, validate_log)

__version__ = "0.1.0"
