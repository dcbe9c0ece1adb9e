//! Property-based tests over the tool chain's core invariants.

use proptest::prelude::*;

use computational_neighborhood::cnx::{self, Job as CnxJob, Param, ParamType, Task as CnxTask};
use computational_neighborhood::tasks::{floyd_parallel, floyd_sequential, Matrix, INF};
use computational_neighborhood::xml;
use computational_neighborhood::xpath;

// ---------- generators -----------------------------------------------------

/// Text without XML-hostile control characters (which we never claim to
/// support) but *with* markup characters that must be escaped.
fn xml_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('a'),
            Just('Z'),
            Just('0'),
            Just(' '),
            Just('&'),
            Just('<'),
            Just('>'),
            Just('"'),
            Just('\''),
            Just('ü'),
            Just('→'),
        ],
        0..24,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

fn name_str() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}"
}

prop_compose! {
    fn arb_task(existing: Vec<String>)(
        name in name_str(),
        jar in name_str(),
        class in name_str(),
        memory in 1u64..10_000,
        deps in proptest::sample::subsequence(existing.clone(), 0..=existing.len().min(4)),
        param_vals in proptest::collection::vec(0i64..100, 0..3),
    ) -> CnxTask {
        let mut t = CnxTask::new(name, format!("{jar}.jar"), class);
        t.req.memory_mb = memory;
        t.depends = deps;
        for v in param_vals {
            t.params.push(Param::integer(v));
        }
        t
    }
}

/// A random DAG-shaped job: each task may only depend on earlier tasks, so
/// the result is acyclic by construction (names made unique by suffixing).
fn arb_job() -> impl Strategy<Value = CnxJob> {
    proptest::collection::vec(0u8..0, 0..1).prop_flat_map(|_| {
        (1usize..8).prop_flat_map(|n| {
            let mut strat = Just(Vec::<CnxTask>::new()).boxed();
            for i in 0..n {
                strat = (strat, any::<u64>(), 1u64..5000, 0usize..4)
                    .prop_map(move |(mut tasks, seed, memory, dep_count)| {
                        let name = format!("task{i}");
                        let mut t = CnxTask::new(
                            name,
                            format!("jar{}.jar", seed % 3),
                            format!("Class{}", seed % 5),
                        );
                        t.req.memory_mb = memory;
                        let mut deps: Vec<String> = Vec::new();
                        let avail = tasks.len();
                        for d in 0..dep_count.min(avail) {
                            let pick = (seed as usize + d * 7) % avail;
                            let dep = format!("task{pick}");
                            if !deps.contains(&dep) {
                                deps.push(dep);
                            }
                        }
                        t.depends = deps;
                        tasks.push(t);
                        tasks
                    })
                    .boxed();
            }
            strat.prop_map(|tasks| CnxJob { tasks })
        })
    })
}

// ---------- XML ------------------------------------------------------------

proptest! {
    #[test]
    fn escape_unescape_roundtrip(s in xml_text()) {
        let escaped = xml::escape::escape_attr(&s);
        let back = xml::escape::unescape(&escaped, xml::Pos::start()).unwrap();
        prop_assert_eq!(back.as_ref(), s.as_str());
    }

    #[test]
    fn attribute_roundtrip_through_serialization(value in xml_text(), name in name_str()) {
        let mut doc = xml::Document::new();
        let root = doc.add_element(doc.document_node(), "root");
        doc.set_attr(root, name.as_str(), value.as_str());
        let text = xml::write_document(&doc, &xml::WriteOptions::default());
        let back = xml::parse(&text).unwrap();
        let root2 = back.root_element().unwrap();
        prop_assert_eq!(back.attr(root2, &name), Some(value.as_str()));
    }

    #[test]
    fn text_content_roundtrip(content in xml_text()) {
        let mut doc = xml::Document::new();
        let root = doc.add_element(doc.document_node(), "root");
        doc.add_text(root, content.as_str());
        let text = xml::write_document(&doc, &xml::WriteOptions::compact());
        let back = xml::parse(&text).unwrap();
        prop_assert_eq!(back.text_content(back.root_element().unwrap()), content);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in "\\PC{0,64}") {
        let _ = xml::parse(&input); // must return Ok or Err, not panic
    }
}

// ---------- XPath ----------------------------------------------------------

proptest! {
    #[test]
    fn xpath_parser_never_panics(input in "\\PC{0,48}") {
        let _ = xpath::parse_expr(&input);
    }

    #[test]
    fn xpath_numeric_arithmetic_matches_rust(a in 0i64..1000, b in 0i64..1000, c in 0i64..1000) {
        let doc = xml::parse("<r/>").unwrap();
        let ctx = xpath::Ctx::new(&doc, doc.document_node());
        let expr = xpath::parse_expr(&format!("{a} + {b} - {c} - {a}")).unwrap();
        let expect = (a + b - c - a) as f64;
        prop_assert_eq!(ctx.eval(&expr).unwrap(), xpath::Value::Number(expect));
    }

    #[test]
    fn count_matches_manual_enumeration(n in 0usize..12) {
        let body: String = (0..n).map(|i| format!("<t id='{i}'/>")).collect();
        let doc = xml::parse(&format!("<r>{body}</r>")).unwrap();
        let v = xpath::eval_str(&doc, doc.document_node(), "/r/t").unwrap();
        prop_assert_eq!(v.into_nodeset().map(|ns| ns.len()), Some(n));
        for k in 1..=n {
            let path = format!("/r/t[position() = {k}]/@id");
            let v = xpath::eval_str(&doc, doc.document_node(), &path).unwrap();
            prop_assert_eq!(v.to_string_value(&doc), (k - 1).to_string());
        }
    }
}

// ---------- CNX ------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cnx_roundtrip(job in arb_job()) {
        let mut client = cnx::Client::new("PropClient");
        client.jobs.push(job);
        let doc = cnx::CnxDocument::new(client);
        let text = cnx::write_cnx(&doc);
        let back = cnx::parse_cnx(&text).unwrap();
        prop_assert_eq!(doc, back);
    }

    #[test]
    fn topological_order_is_valid(job in arb_job()) {
        let graph = cnx::DependencyGraph::build(&job).unwrap();
        let order = graph.topological_order();
        prop_assert_eq!(order.len(), job.tasks.len());
        // Every task appears after all of its dependencies.
        let pos: std::collections::HashMap<usize, usize> =
            order.iter().enumerate().map(|(p, &t)| (t, p)).collect();
        for i in 0..graph.len() {
            for &d in graph.dependencies(i) {
                prop_assert!(pos[&d] < pos[&i], "dep {d} not before {i}");
            }
        }
    }

    #[test]
    fn waves_partition_tasks_and_respect_deps(job in arb_job()) {
        let graph = cnx::DependencyGraph::build(&job).unwrap();
        let waves = graph.waves();
        let total: usize = waves.iter().map(Vec::len).sum();
        prop_assert_eq!(total, job.tasks.len());
        // A task's wave index is strictly greater than each dependency's.
        let wave_of = |t: usize| waves.iter().position(|w| w.contains(&t)).unwrap();
        for i in 0..graph.len() {
            for &d in graph.dependencies(i) {
                prop_assert!(wave_of(d) < wave_of(i));
            }
        }
        prop_assert_eq!(waves.len(), graph.critical_path_len());
    }
}

// ---------- Floyd ----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_floyd_equals_sequential(
        n in 1usize..24,
        p in 0.0f64..0.6,
        seed in any::<u64>(),
        threads in 1usize..6,
    ) {
        let g = computational_neighborhood::tasks::random_digraph(n, p, 1..20, seed);
        prop_assert_eq!(floyd_parallel(&g, threads), floyd_sequential(&g));
    }

    #[test]
    fn floyd_triangle_inequality(n in 2usize..16, seed in any::<u64>()) {
        let g = computational_neighborhood::tasks::random_digraph(n, 0.3, 1..10, seed);
        let s = floyd_sequential(&g);
        for i in 0..n {
            prop_assert_eq!(s.get(i, i), 0);
            for j in 0..n {
                for k in 0..n {
                    if s.get(i, k) < INF && s.get(k, j) < INF {
                        prop_assert!(s.get(i, j) <= s.get(i, k) + s.get(k, j));
                    }
                }
            }
        }
    }

    #[test]
    fn floyd_never_increases_distances(n in 1usize..16, seed in any::<u64>()) {
        let g = computational_neighborhood::tasks::random_digraph(n, 0.3, 1..10, seed);
        let s = floyd_sequential(&g);
        for i in 0..n {
            for j in 0..n {
                prop_assert!(s.get(i, j) <= g.get(i, j));
            }
        }
    }
}

// ---------- Matrix wire format ----------------------------------------------

proptest! {
    #[test]
    fn matrix_userdata_roundtrip(n in 0usize..12, seed in any::<u64>()) {
        let m = computational_neighborhood::tasks::random_digraph(n, 0.4, 1..50, seed);
        let back = Matrix::from_userdata(&m.to_userdata()).unwrap();
        prop_assert_eq!(m, back);
    }

    #[test]
    fn row_blocks_partition_exactly(n in 0usize..200, parts in 1usize..17) {
        let blocks = computational_neighborhood::tasks::row_blocks(n, parts);
        prop_assert_eq!(blocks.len(), parts);
        let mut next = 0;
        for b in &blocks {
            prop_assert_eq!(b.start, next);
            next = b.end;
        }
        prop_assert_eq!(next, n);
        // Sizes differ by at most one.
        let sizes: Vec<usize> = blocks.iter().map(|b| b.len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }
}

// ---------- Model / XMI ------------------------------------------------------

use computational_neighborhood::model::{ActionState, ActivityGraph, NodeKind};

/// A random valid layered activity graph: initial -> layers of actions
/// (each depending on >=1 action of the previous layer) -> final.
fn arb_activity_graph() -> impl Strategy<Value = ActivityGraph> {
    (1usize..4, 1usize..4, any::<u64>()).prop_map(|(layers, width, seed)| {
        let mut g = ActivityGraph::new("Prop");
        let initial = g.add_node(NodeKind::Initial);
        let mut prev: Vec<computational_neighborhood::model::NodeId> = vec![];
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s
        };
        for l in 0..layers {
            let mut layer = vec![];
            for w in 0..width {
                let mut a = ActionState::new(format!("t{l}_{w}"));
                a.tags.set("jar", format!("jar{}.jar", next() % 3));
                a.tags.set("class", format!("Class{}", next() % 4));
                a.tags.set("memory", ((next() % 4000) + 1).to_string());
                if next() % 5 == 0 {
                    a.dynamic = true;
                    a.multiplicity = Some("*".to_string());
                }
                let id = g.add_node(NodeKind::Action(a));
                if l == 0 {
                    g.add_transition(initial, id);
                } else {
                    // At least one dependency into the previous layer.
                    let first = prev[(next() as usize) % prev.len()];
                    g.add_transition(first, id);
                    for &p in &prev {
                        if p != first && next() % 3 == 0 {
                            g.add_transition(p, id);
                        }
                    }
                }
                layer.push(id);
            }
            prev = layer;
        }
        let fin = g.add_node(NodeKind::Final);
        for &p in &prev {
            g.add_transition(p, fin);
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn xmi_roundtrip_preserves_structure(g in arb_activity_graph()) {
        computational_neighborhood::model::validate(&g).unwrap();
        let text = xml::write_document(
            &computational_neighborhood::model::export_xmi(&g),
            &xml::WriteOptions::xmi(),
        );
        let doc = xml::parse(&text).unwrap();
        let back = computational_neighborhood::model::import_xmi(&doc).unwrap();
        prop_assert_eq!(back.nodes.len(), g.nodes.len());
        prop_assert_eq!(back.transitions.len(), g.transitions.len());
        // Tagged values and dynamic flags survive per action.
        for (_, a) in g.action_states() {
            let (_, b) = back.action_by_name(&a.name).expect("action survives");
            prop_assert_eq!(&a.tags, &b.tags);
            prop_assert_eq!(a.dynamic, b.dynamic);
        }
    }

    #[test]
    fn xslt_and_native_transform_agree_on_random_models(g in arb_activity_graph()) {
        use computational_neighborhood::transform::xmi2cnx::{
            normalized, xmi_to_cnx_native, xmi_to_cnx_xslt, ClientSettings,
        };
        let text = xml::write_document(
            &computational_neighborhood::model::export_xmi(&g),
            &xml::WriteOptions::xmi(),
        );
        let settings = ClientSettings::default();
        let via_xslt = cnx::parse_cnx(&xmi_to_cnx_xslt(&text, &settings).unwrap()).unwrap();
        let via_native = xmi_to_cnx_native(&text, &settings).unwrap();
        prop_assert_eq!(normalized(via_xslt), normalized(via_native));
    }
}

// ---------- ParamType normalization ------------------------------------------

proptest! {
    #[test]
    fn param_type_accepts_java_prefix(base in "[A-Z][a-z]{2,8}") {
        let short = ParamType::parse(&base);
        let long = ParamType::parse(&format!("java.lang.{base}"));
        prop_assert_eq!(short, long);
    }
}

// ---------- Lint engine -------------------------------------------------------

use computational_neighborhood::analysis::{lint_cnx, LintOptions};

fn doc_of(job: CnxJob) -> cnx::CnxDocument {
    let mut client = cnx::Client::new("PropClient");
    client.jobs.push(job);
    cnx::CnxDocument::new(client)
}

/// An `arb_job` DAG extended with one extra [`arb_task`] appended at the end
/// (suffixed so its name cannot collide with the generated `task{i}` names).
fn arb_job_with_extra_task() -> impl Strategy<Value = CnxJob> {
    arb_job().prop_flat_map(|job| {
        let names: Vec<String> = job.tasks.iter().map(|t| t.name.clone()).collect();
        arb_task(names).prop_map(move |mut extra| {
            let mut job = job.clone();
            extra.name = format!("{}_extra", extra.name);
            job.tasks.push(extra);
            job
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lint_is_deterministic_across_runs(job in arb_job_with_extra_task()) {
        let doc = doc_of(job);
        let opts = LintOptions::default();
        let a = lint_cnx(&doc, &opts);
        let b = lint_cnx(&doc, &opts);
        prop_assert_eq!(a.to_text(), b.to_text());
        prop_assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn lint_is_deterministic_through_serialization(job in arb_job_with_extra_task()) {
        // Linting the in-memory document and linting its serialized text
        // must agree on everything except source positions.
        let doc = doc_of(job);
        let opts = LintOptions::default();
        let direct = lint_cnx(&doc, &opts);
        let reparsed = computational_neighborhood::analysis::lint_cnx_source(
            &cnx::write_cnx(&doc),
            &opts,
        );
        let strip = |r: &computational_neighborhood::analysis::LintReport| {
            let mut lines: Vec<(String, String, String)> = r
                .diagnostics()
                .iter()
                .map(|d| (d.code.to_string(), d.severity.to_string(), d.message.clone()))
                .collect();
            lines.sort();
            lines
        };
        prop_assert_eq!(strip(&direct), strip(&reparsed));
    }

    #[test]
    fn lint_is_stable_under_task_reordering(job in arb_job_with_extra_task(), rot in 0usize..8) {
        let opts = LintOptions::default();
        let base = lint_cnx(&doc_of(job.clone()), &opts);

        let mut reversed = job.clone();
        reversed.tasks.reverse();
        let rev = lint_cnx(&doc_of(reversed), &opts);
        prop_assert_eq!(base.to_json(), rev.to_json());

        let mut rotated = job.clone();
        if !rotated.tasks.is_empty() {
            let k = rot % rotated.tasks.len();
            rotated.tasks.rotate_left(k);
        }
        let rot_report = lint_cnx(&doc_of(rotated), &opts);
        prop_assert_eq!(base.to_json(), rot_report.to_json());
    }
}

// ---------- wire codec -----------------------------------------------------

use std::collections::HashMap;

use computational_neighborhood::cluster::{Addr, Envelope};
use computational_neighborhood::core::message::Bid;
use computational_neighborhood::core::scheduler::LoadSignal;
use computational_neighborhood::core::{Field, JobId, JobRequirements, NetMsg, TaskSpec, UserData};
use computational_neighborhood::wire::codec::{decode_payload, encode_payload};

/// A strategy per *field type* of the protocol table; `arb_netmsg` below
/// is the table itself, one `Union` arm per row.
trait Arb: Sized {
    fn arb() -> BoxedStrategy<Self>;
}

macro_rules! arb {
    ($($ty:ty => $strategy:expr;)*) => {$(
        impl Arb for $ty {
            fn arb() -> BoxedStrategy<Self> {
                $strategy.boxed()
            }
        }
    )*};
}

arb! {
    bool => (0u8..2).prop_map(|b| b == 1);
    u64 => 0u64..1_000_000;
    usize => 0usize..64;
    String => prop_oneof![name_str(), xml_text()];
    Addr => (0u64..u64::MAX).prop_map(Addr);
    JobId => (0u64..1000).prop_map(JobId);
    JobRequirements => (u64::arb(), usize::arb()).prop_map(|(min_free_memory_mb, min_free_slots)| {
        JobRequirements { min_free_memory_mb, min_free_slots }
    });
    UserData => prop_oneof![
        Just(UserData::Empty),
        xml_text().prop_map(UserData::Text),
        proptest::collection::vec(0u8..=255, 0..32).prop_map(UserData::Bytes),
        proptest::collection::vec(-1000i64..1000, 0..16).prop_map(UserData::I64s),
        proptest::collection::vec(-1e6f64..1e6, 0..16).prop_map(UserData::F64s),
    ];
    Field => prop_oneof![
        (-1000i64..1000).prop_map(Field::I),
        (-1e6f64..1e6).prop_map(Field::F),
        xml_text().prop_map(Field::S),
        proptest::collection::vec(0u8..=255, 0..24).prop_map(Field::B),
    ];
    LoadSignal => (0u32..1_000, 0u32..64, 0u64..10_000_000).prop_map(
        |(queue_depth, in_flight, ewma_dispatch_us)| LoadSignal {
            queue_depth,
            in_flight,
            ewma_dispatch_us,
        }
    );
    Bid => (name_str(), Addr::arb(), 0.0f64..64.0, u64::arb(), usize::arb(), LoadSignal::arb())
        .prop_map(|(server, addr, load, free_memory_mb, free_slots, signal)| Bid {
            server,
            addr,
            load,
            free_memory_mb,
            free_slots,
            signal,
        });
    TaskSpec => (
        (name_str(), name_str(), name_str()),
        proptest::collection::vec(name_str(), 0..4),
        1u64..100_000,
        proptest::collection::vec(-100i64..100, 0..3),
        xml_text(),
    )
        .prop_map(|((name, jar, class), depends, memory_mb, ints, text)| {
            let mut spec = TaskSpec::new(name, jar, class);
            spec.depends = depends;
            spec.memory_mb = memory_mb;
            spec.params = ints.into_iter().map(Param::integer).collect();
            spec.params.push(Param::string(text));
            spec
        });
}

impl<T: Arb + 'static> Arb for Option<T> {
    fn arb() -> BoxedStrategy<Self> {
        (bool::arb(), T::arb()).prop_map(|(some, v)| some.then_some(v)).boxed()
    }
}

impl<T: Arb + 'static> Arb for Vec<T> {
    fn arb() -> BoxedStrategy<Self> {
        proptest::collection::vec(T::arb(), 0..6).boxed()
    }
}

impl<A: Arb + 'static, B: Arb + 'static> Arb for (A, B) {
    fn arb() -> BoxedStrategy<Self> {
        (A::arb(), B::arb()).boxed()
    }
}

impl<V: Arb + 'static> Arb for HashMap<String, V> {
    fn arb() -> BoxedStrategy<Self> {
        proptest::collection::vec((name_str(), V::arb()), 0..5)
            .prop_map(|entries| entries.into_iter().collect())
            .boxed()
    }
}

/// One table row → one strategy: the fields' strategies as a tuple, mapped
/// into the variant (a fieldless row is the variant itself).
macro_rules! arb_row {
    ($name:ident) => {
        Just(NetMsg::$name).boxed()
    };
    ($name:ident { $($field:ident : $ty:ty),* }) => {
        ($(<$ty>::arb(),)*).prop_map(|($($field,)*)| NetMsg::$name { $($field),* }).boxed()
    };
}

/// The callback handed to `netmsg_table!`: every row of the protocol table
/// is an arm, so a new message is fuzzed the moment its row exists.
macro_rules! arb_netmsg_from_table {
    ($(
        $(#[$meta:meta])*
        $name:ident = $tag:literal
        $({ $( $(#[$fmeta:meta])* $field:ident : $ty:ty ),* $(,)? })?
    ),* $(,)?) => {
        fn arb_netmsg() -> Union<NetMsg> {
            Union::new(vec![$( arb_row!($name $({ $($field : $ty),* })?) ),*])
        }
    };
}
computational_neighborhood::core::netmsg_table!(arb_netmsg_from_table);

/// The derived strategy reaches every row of the table (fixed seed).
#[test]
fn strategy_produces_every_netmsg_kind() {
    let strategy = arb_netmsg();
    let mut rng = proptest::test_runner::TestRng::for_case("netmsg-kinds", 0);
    let seen: std::collections::BTreeSet<&str> =
        (0..2_000).map(|_| strategy.generate(&mut rng).kind()).collect();
    let missing: Vec<_> = NetMsg::KINDS.iter().filter(|k| !seen.contains(*k)).collect();
    assert!(missing.is_empty(), "never generated: {missing:?}");
}

prop_compose! {
    fn arb_envelope()(from in Addr::arb(), to in Addr::arb(), msg in arb_netmsg()) -> Envelope<NetMsg> {
        Envelope { from, to, msg }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wire_payload_round_trips(env in arb_envelope()) {
        let bytes = encode_payload(&env);
        let back: Envelope<NetMsg> = decode_payload(&bytes).unwrap();
        prop_assert_eq!(back, env);
    }

    #[test]
    fn truncated_payload_is_a_typed_error_not_a_panic(env in arb_envelope(), cut in 0usize..1_000_000) {
        // Every strict prefix of a valid payload must fail to decode:
        // decoding is deterministic and consumes the full payload, so a
        // shorter input either hits Truncated mid-field or TrailingBytes
        // can never fire early.
        let bytes = encode_payload(&env);
        let cut = cut % bytes.len();
        prop_assert!(decode_payload::<NetMsg>(&bytes[..cut]).is_err());
    }

    #[test]
    fn corrupted_payload_never_panics(env in arb_envelope(), idx in 0usize..1_000_000, patch in 0u8..=255) {
        let mut bytes = encode_payload(&env);
        let idx = idx % bytes.len();
        bytes[idx] = patch;
        // Either it still decodes (the byte was payload data) or it fails
        // with a typed error; it must never panic.
        let _ = decode_payload::<NetMsg>(&bytes);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let _ = decode_payload::<NetMsg>(&bytes);
    }
}

// ---------- wire framing (coalesced batches) --------------------------------

use computational_neighborhood::wire::FrameDecoder;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coalesced_frames_decode_identically_to_frame_per_read(
        envs in proptest::collection::vec(arb_envelope(), 1..6),
        cuts in proptest::collection::vec(0usize..1_000_000, 0..8),
    ) {
        use computational_neighborhood::wire::codec::encode_frame;
        let frames: Vec<Vec<u8>> = envs.iter().map(encode_frame).collect();
        let stream: Vec<u8> = frames.concat();

        // Reference: one whole frame per read.
        let mut reference = Vec::new();
        let mut dec = FrameDecoder::default();
        for f in &frames {
            dec.feed(f);
            while let Some(p) = dec.next_payload().unwrap() {
                reference.push(p);
            }
        }
        prop_assert!(!dec.has_partial());

        // The same bytes split at arbitrary points — a coalesced batch
        // arriving in whatever segment sizes the kernel felt like.
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (stream.len() + 1)).collect();
        cuts.push(0);
        cuts.push(stream.len());
        cuts.sort_unstable();
        let mut split = Vec::new();
        let mut dec = FrameDecoder::default();
        for w in cuts.windows(2) {
            dec.feed(&stream[w[0]..w[1]]);
            while let Some(p) = dec.next_payload().unwrap() {
                split.push(p);
            }
        }
        prop_assert!(!dec.has_partial());
        prop_assert_eq!(&split, &reference);

        // And the payload sequence is exactly the original envelopes.
        let decoded: Vec<Envelope<NetMsg>> =
            split.iter().map(|p| decode_payload(p).unwrap()).collect();
        prop_assert_eq!(decoded, envs);
    }

    #[test]
    fn corrupted_coalesced_stream_yields_typed_errors_never_panics(
        envs in proptest::collection::vec(arb_envelope(), 1..6),
        idx in 0usize..1_000_000,
        patch in 0u8..=255,
    ) {
        use computational_neighborhood::wire::codec::encode_frame;
        use computational_neighborhood::wire::WireError;
        let mut stream: Vec<u8> = envs.iter().flat_map(encode_frame).collect();
        let idx = idx % stream.len();
        stream[idx] = patch;
        let mut dec = FrameDecoder::default();
        dec.feed(&stream);
        loop {
            match dec.next_payload() {
                Ok(Some(p)) => {
                    // The splitter handed out a payload: it either decodes
                    // or fails with a typed error, never a panic — and the
                    // splitter itself stays aligned on length prefixes.
                    let _ = decode_payload::<NetMsg>(&p);
                }
                Ok(None) => break,
                Err(e) => {
                    let _typed: WireError = e;
                    break;
                }
            }
        }
    }
}
