//! Seeded input generation. The same `--seed` gives byte-identical task
//! lists; the program under test sees only the generated `TaskSpec`s.

use crate::spec::TaskKind;
use falkon_proto::task::{IStr, TaskSpec};

/// SplitMix64: the benchmark's own generator, so its inputs do not change
/// when the repository's simulation RNG does.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Seed the generator.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for the
    /// sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Environment pairs per fat task.
pub const FAT_ENV_PAIRS: usize = 8;
/// Bytes of one pair: a 16-byte key and a 112-byte value.
pub const FAT_PAIR_BYTES: usize = 128;
const FAT_KEY_BYTES: usize = 16;

/// Distinct environments a trial draws from. Tasks share the strings of
/// the environment they drew (an `IStr` clone is a reference count), so
/// the benchmark's own copy of the inputs stays near 1 MiB and the peak
/// memory it reports is the program's; on the wire and after every decode
/// each task still carries its own ~1 KiB of non-internable strings.
pub const FAT_ENV_POOL: usize = 1024;

fn random_text(rng: &mut Rng, prefix: &str, len: usize) -> IStr {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-";
    let mut s = String::with_capacity(len);
    s.push_str(prefix);
    while s.len() < len {
        s.push(ALPHABET[(rng.next_u64() & 63) as usize] as char);
    }
    IStr::from(s)
}

fn fat_env_pool(rng: &mut Rng) -> Vec<Vec<(IStr, IStr)>> {
    (0..FAT_ENV_POOL)
        .map(|_| {
            (0..FAT_ENV_PAIRS)
                .map(|_| {
                    (
                        // The prefix keeps keys out of the codec's intern
                        // table whatever the random tail is.
                        random_text(rng, "FK_", FAT_KEY_BYTES),
                        random_text(rng, "", FAT_PAIR_BYTES - FAT_KEY_BYTES),
                    )
                })
                .collect()
        })
        .collect()
}

/// The tasks of one trial: a warm-up wave and the window's waves, with ids
/// unique across the whole trial and in seeded order.
pub struct TrialTasks {
    /// The discarded warm-up wave.
    pub warmup: Vec<TaskSpec>,
    /// The measured window, one entry per `run_client` call.
    pub waves: Vec<Vec<TaskSpec>>,
}

impl TrialTasks {
    /// Tasks in the measured window.
    pub fn window_len(&self) -> u64 {
        self.waves.iter().map(|w| w.len() as u64).sum()
    }

    /// Every task id of the trial, sorted.
    pub fn sorted_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .warmup
            .iter()
            .chain(self.waves.iter().flatten())
            .map(|t| t.id.0)
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// Generate one trial's tasks from `seed` and the trial number.
pub fn trial_tasks(
    kind: TaskKind,
    seed: u64,
    trial: u32,
    warmup: u64,
    window: u64,
    wave: u64,
) -> TrialTasks {
    let mut rng = Rng::new(seed ^ (u64::from(trial) + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    let total = warmup + window;
    // Ids are a seeded permutation of 0..total: the program's id-keyed
    // tables see no sequential pattern it could lean on.
    let mut ids: Vec<u64> = (0..total).collect();
    rng.shuffle(&mut ids);
    let pool = match kind {
        TaskKind::Fat => fat_env_pool(&mut rng),
        _ => Vec::new(),
    };
    let mut specs = ids.into_iter().map(|id| match kind {
        TaskKind::Sleep0 => TaskSpec::sleep(id, 0),
        TaskKind::SleepUs(us) => TaskSpec::sleep_us(id, us),
        TaskKind::Fat => {
            let mut t = TaskSpec::sleep(id, 0);
            t.env = pool[rng.below(pool.len() as u64) as usize].clone();
            t
        }
    });
    let warmup_tasks: Vec<TaskSpec> = specs.by_ref().take(warmup as usize).collect();
    let mut waves = Vec::new();
    loop {
        let w: Vec<TaskSpec> = specs.by_ref().take(wave as usize).collect();
        if w.is_empty() {
            break;
        }
        waves.push(w);
    }
    TrialTasks {
        warmup: warmup_tasks,
        waves,
    }
}
