//! A Swift/Karajan-like data-driven workflow engine, plus generators for the
//! paper's application workloads.
//!
//! The Falkon paper's application experiments (Section 5) run fMRI and
//! Montage pipelines through the Swift parallel programming system, which
//! dispatches logically-ready tasks either straight to GRAM4+PBS, to
//! GRAM4+PBS with *clustering* (several small tasks wrapped into one batch
//! job), or to Falkon. This module provides the equivalent substrate:
//!
//! * [`dag`] — task graphs with data dependencies;
//! * [`engine`] — the data-driven executor: tasks whose inputs are ready are
//!   submitted to a pluggable [`provider::Provider`] (Falkon, GRAM4+PBS,
//!   clustered GRAM4+PBS, an ideal pool, …);
//! * `cluster` — the task-clustering transform;
//! * [`apps`] — workload generators: the 18-stage synthetic provisioning
//!   workload (Figure 11), the fMRI AIRSN pipeline (Figure 14), the Montage
//!   mosaic DAG (Figure 15), and the Table 5 application catalogue.

pub mod apps;
mod cluster;
pub mod dag;
pub mod engine;
pub mod provider;
