//! The Swift application catalogue (paper Table 5).

/// One row of Table 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwiftApp {
    /// Application name.
    pub name: &'static str,
    /// Typical tasks per workflow (representative midpoint of the paper's
    /// ranges).
    pub tasks: u64,
    /// The paper's verbatim task-count description.
    pub tasks_text: &'static str,
    /// Pipeline stages (midpoint where the paper gives a range).
    pub stages: u32,
    /// The paper's verbatim stage description.
    pub stages_text: &'static str,
}

/// Table 5, in paper order.
pub const APPLICATIONS: [SwiftApp; 11] = [
    SwiftApp {
        name: "ATLAS: High Energy Physics Event Simulation",
        tasks: 500_000,
        tasks_text: "500K",
        stages: 1,
        stages_text: "1",
    },
    SwiftApp {
        name: "fMRI DBIC: AIRSN Image Processing",
        tasks: 300,
        tasks_text: "100s",
        stages: 12,
        stages_text: "12",
    },
    SwiftApp {
        name: "FOAM: Ocean/Atmosphere Model",
        tasks: 2_000,
        tasks_text: "2000",
        stages: 3,
        stages_text: "3",
    },
    SwiftApp {
        name: "GADU: Genomics",
        tasks: 40_000,
        tasks_text: "40K",
        stages: 4,
        stages_text: "4",
    },
    SwiftApp {
        name: "HNL: fMRI Aphasia Study",
        tasks: 500,
        tasks_text: "500",
        stages: 4,
        stages_text: "4",
    },
    SwiftApp {
        name: "NVO/NASA: Photorealistic Montage/Morphology",
        tasks: 1_000,
        tasks_text: "1000s",
        stages: 16,
        stages_text: "16",
    },
    SwiftApp {
        name: "QuarkNet/I2U2: Physics Science Education",
        tasks: 10,
        tasks_text: "10s",
        stages: 4,
        stages_text: "3~6",
    },
    SwiftApp {
        name: "RadCAD: Radiology Classifier Training",
        tasks: 40_000,
        tasks_text: "1000s, 40K",
        stages: 5,
        stages_text: "5",
    },
    SwiftApp {
        name: "SIDGrid: EEG Wavelet Processing, Gaze Analysis",
        tasks: 100,
        tasks_text: "100s",
        stages: 20,
        stages_text: "20",
    },
    SwiftApp {
        name: "SDSS: Coadd, Cluster Search",
        tasks: 270_000,
        tasks_text: "40K, 500K",
        stages: 5,
        stages_text: "2, 8",
    },
    SwiftApp {
        name: "SDSS: Stacking, AstroPortal",
        tasks: 50_000,
        tasks_text: "10Ks ~ 100Ks",
        stages: 3,
        stages_text: "2 ~ 4",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_eleven_rows() {
        assert_eq!(APPLICATIONS.len(), 11);
        assert!(APPLICATIONS.iter().any(|a| a.name.contains("ATLAS")));
        assert!(APPLICATIONS.iter().all(|a| a.tasks > 0 && a.stages > 0));
    }
}
