//! The seeded generator: the same seed gives byte-identical inputs.

use falkon_benchmark::gen::{trial_tasks, FAT_ENV_PAIRS, FAT_PAIR_BYTES};
use falkon_benchmark::spec::TaskKind;
use falkon_proto::codec::{Codec, EfficientCodec};
use falkon_proto::message::{InstanceId, Message};

/// The wire bytes of a trial's tasks, in submission order.
fn wire_bytes(kind: TaskKind, seed: u64, trial: u32) -> Vec<u8> {
    let t = trial_tasks(kind, seed, trial, 50, 400, 100);
    let mut out = Vec::new();
    for wave in std::iter::once(t.warmup).chain(t.waves) {
        out.extend(EfficientCodec.encode(&Message::Submit {
            instance: InstanceId(1),
            tasks: wave,
        }));
    }
    out
}

#[test]
fn same_seed_gives_byte_identical_task_lists() {
    for kind in [TaskKind::Sleep0, TaskKind::Fat, TaskKind::SleepUs(1000)] {
        assert_eq!(wire_bytes(kind, 7, 0), wire_bytes(kind, 7, 0), "{kind:?}");
        assert_ne!(
            wire_bytes(kind, 7, 0),
            wire_bytes(kind, 8, 0),
            "{kind:?}: seed"
        );
        assert_ne!(
            wire_bytes(kind, 7, 0),
            wire_bytes(kind, 7, 1),
            "{kind:?}: trial"
        );
    }
}

#[test]
fn ids_are_a_seeded_permutation_split_into_whole_waves() {
    let t = trial_tasks(TaskKind::Sleep0, 3, 0, 50, 400, 100);
    assert_eq!(t.warmup.len(), 50);
    assert_eq!(t.waves.len(), 4);
    assert!(t.waves.iter().all(|w| w.len() == 100));
    assert_eq!(t.window_len(), 400);
    assert_eq!(t.sorted_ids(), (0..450).collect::<Vec<u64>>());
    let in_order: Vec<u64> = t.warmup.iter().map(|s| s.id.0).collect();
    assert_ne!(in_order, (0..50).collect::<Vec<u64>>(), "order is shuffled");
}

#[test]
fn fat_tasks_carry_a_kibibyte_of_strings_the_codec_cannot_intern() {
    let t = trial_tasks(TaskKind::Fat, 11, 0, 0, 64, 64);
    for task in t.waves.iter().flatten() {
        assert_eq!(task.env.len(), FAT_ENV_PAIRS);
        for (k, v) in &task.env {
            assert_eq!(k.len() + v.len(), FAT_PAIR_BYTES);
            assert!(!k.is_interned() && !v.is_interned());
        }
    }
    // A decode allocates every string afresh: nothing comes back interned.
    let bytes = EfficientCodec.encode(&Message::Work {
        tasks: t.waves[0][..1].to_vec(),
    });
    let Message::Work { tasks } = EfficientCodec.decode(&bytes).expect("decodes") else {
        panic!("decoded another message");
    };
    assert!(tasks[0]
        .env
        .iter()
        .all(|(k, v)| !k.is_interned() && !v.is_interned()));
    assert_eq!(tasks[0], t.waves[0][0]);
}
