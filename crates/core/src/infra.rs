//! The Astral infrastructure facade: network + power + cooling + Seer +
//! monitoring, behind one orchestration type.

use crate::placement::{place_job, PlacementPolicy};
use astral_cooling::FacilityConfig;
use astral_model::{build_training_iteration, ModelConfig, ParallelismConfig};
use astral_monitor::{
    diagnose, run_fault_scenario, CorrelationPrior, Diagnosis, Fault, ScenarioConfig,
};
use astral_seer::{Calibration, GpuSpec, NetworkSpec, Seer, SeerConfig, Testbed};
use astral_topo::{build_astral, AstralParams, AstralScale, GpuId, Topology};

/// A deployed Astral datacenter: fabric, facility, and the software stack
/// (Seer + monitor) operating it.
pub struct AstralInfrastructure {
    params: AstralParams,
    topo: Topology,
    facility: FacilityConfig,
}

/// Result of evaluating a training job on the infrastructure's testbed.
#[derive(Debug, Clone)]
pub struct JobEvaluation {
    /// Measured iteration time on the (simulated) fabric.
    pub iteration_s: f64,
    /// Tokens per second across the job.
    pub tokens_per_s: f64,
    /// Pods the placement touched.
    pub pods_touched: usize,
}

impl AstralInfrastructure {
    /// Deploy an Astral fabric with the default facility and H100-class
    /// GPUs.
    pub fn deploy(params: AstralParams) -> Self {
        let topo = build_astral(&params);
        AstralInfrastructure {
            params,
            topo,
            facility: FacilityConfig::astral(),
        }
    }

    /// The fabric.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Builder parameters.
    pub fn params(&self) -> &AstralParams {
        &self.params
    }

    /// Figure-3 scale arithmetic for this deployment.
    pub fn scale(&self) -> AstralScale {
        self.params.scale()
    }

    /// Facility PUE under the current power/cooling configuration.
    pub fn pue(&self) -> f64 {
        self.facility.pue()
    }

    /// Place a job.
    pub fn place(&self, gpus: u32, policy: PlacementPolicy) -> Vec<GpuId> {
        place_job(&self.topo, gpus, policy)
    }

    /// A Seer calibrated against this infrastructure's testbed.
    pub fn calibrated_seer(&self, par: &ParallelismConfig, seed: u64) -> Seer {
        let testbed = Testbed::new(&self.topo, GpuSpec::h100());
        let cal: Calibration = testbed.calibrate(par, seed);
        let mut net = NetworkSpec::astral();
        net.hb_domain = self.topo.hb_domain().gpus_per_domain;
        net.rails = self.topo.rails() as u32;
        Seer::new(SeerConfig {
            gpu: GpuSpec::h100(),
            net,
            calibration: cal,
        })
    }

    /// Evaluate a training job end to end on the simulated fabric with the
    /// given placement.
    pub fn evaluate_training(
        &self,
        model: &ModelConfig,
        par: &ParallelismConfig,
        placement: Vec<GpuId>,
    ) -> JobEvaluation {
        assert_eq!(placement.len() as u32, par.world());
        let pods = crate::placement::pods_touched(&self.topo, &placement);
        let testbed = Testbed::new(&self.topo, GpuSpec::h100()).with_placement(placement);
        let graph = build_training_iteration(model, par);
        let timeline = testbed.execute(&graph, par);
        let iteration_s = timeline.total.as_secs_f64();
        let tokens = par.global_batch() * model.seq_len;
        JobEvaluation {
            iteration_s,
            tokens_per_s: if iteration_s > 0.0 {
                tokens as f64 / iteration_s
            } else {
                0.0
            },
            pods_touched: pods,
        }
    }

    /// Inject a fault into a monitored job and run the hierarchical
    /// analyzer — the end-to-end §3 pipeline.
    pub fn diagnose_fault(&self, fault: Fault, cfg: &ScenarioConfig) -> Diagnosis {
        let outcome = run_fault_scenario(&self.topo, fault, cfg);
        let prior = CorrelationPrior::default();
        diagnose(&outcome.snapshot, &outcome.prober, &prior)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn infra() -> AstralInfrastructure {
        AstralInfrastructure::deploy(AstralParams::sim_small())
    }

    #[test]
    fn deploy_exposes_scale_and_pue() {
        let infra = infra();
        assert_eq!(infra.scale().gpus_total, 256);
        assert!((1.1..1.35).contains(&infra.pue()));
    }

    #[test]
    fn dense_placement_beats_fragmented() {
        let infra = infra();
        let mut m = ModelConfig::llama3_8b();
        m.layers = 4;
        m.hidden = 1024;
        m.ffn_hidden = 4096;
        m.vocab = 16000;
        m.seq_len = 1024;
        let mut par = ParallelismConfig::new(4, 2, 8);
        par.microbatches = 4;

        let dense = infra.evaluate_training(
            &m,
            &par,
            infra.place(par.world(), PlacementPolicy::BlockLocal),
        );
        let frag = infra.evaluate_training(
            &m,
            &par,
            infra.place(
                par.world(),
                PlacementPolicy::FragmentedAcrossPods { pods: 2 },
            ),
        );
        assert_eq!(dense.pods_touched, 1);
        assert_eq!(frag.pods_touched, 2);
        assert!(
            frag.iteration_s >= dense.iteration_s * 0.999,
            "fragmentation should not speed things up: {} vs {}",
            frag.iteration_s,
            dense.iteration_s
        );
    }

    #[test]
    fn fault_pipeline_produces_localized_diagnosis() {
        let infra = infra();
        let d = infra.diagnose_fault(
            Fault::GpuXid {
                host: astral_topo::HostId(2),
            },
            &ScenarioConfig::default(),
        );
        assert_eq!(
            d.culprit,
            astral_monitor::Culprit::Host(astral_topo::HostId(2))
        );
    }

    #[test]
    fn calibrated_seer_forecasts() {
        let infra = infra();
        let mut m = ModelConfig::llama3_8b();
        m.layers = 4;
        m.hidden = 1024;
        m.ffn_hidden = 4096;
        m.vocab = 16000;
        m.seq_len = 1024;
        let mut par = ParallelismConfig::new(4, 2, 4);
        par.microbatches = 4;
        let seer = infra.calibrated_seer(&par, 7);
        let f = seer.forecast_training(&m, &par);
        assert!(f.iteration_s > 0.0);
    }
}
