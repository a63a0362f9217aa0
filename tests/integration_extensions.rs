//! Integration tests for the extension subsystems: the functional layer
//! graph driving real netstack parsers, the instrumented graph, IP
//! fragmentation across hosts, duplex (receive + ACK) simulation, the
//! DNS and NFS-RPC workloads over the full stack, MMPP-driven load, and
//! trace serialization of the real receive-and-ack trace.

use ldlp::graph::{activation_runs, Emitter, GraphLayer, LayerGraph, Schedule};
use netstack::iface::{Channel, Interface};
use netstack::tcp::machine::{TcpConfig, TcpStack};
use netstack::wire::ethernet::EthernetAddr;
use netstack::wire::ipv4::Ipv4Addr;

fn host(n: u8) -> Interface {
    Interface::new(
        EthernetAddr([2, 0, 0, 0, 0, n]),
        Ipv4Addr::new(192, 168, 69, n),
        TcpStack::new(TcpConfig::default()),
    )
}

fn settle(a: &mut Interface, ad: &mut Channel, b: &mut Interface, bd: &mut Channel) {
    let mut quiet = 0;
    while quiet < 2 {
        let n = a.poll(ad, 0) + b.poll(bd, 0);
        a.flush_tcp(ad);
        b.flush_tcp(bd);
        quiet = if n == 0 { quiet + 1 } else { 0 };
    }
}

/// The layer-graph runtime drives real netstack parsing under both
/// schedules with identical results and blocked activation orders.
#[test]
fn layer_graph_with_real_parsers() {
    use netstack::wire::ethernet::{EtherType, EthernetRepr};
    use netstack::wire::ipv4::{Ipv4Repr, Protocol};
    use netstack::wire::udp::UdpRepr;

    struct Eth;
    impl GraphLayer<Vec<u8>> for Eth {
        fn name(&self) -> &str {
            "eth"
        }
        fn process(&mut self, f: Vec<u8>, out: &mut Emitter<Vec<u8>>) {
            if let Ok((eth, payload)) = EthernetRepr::parse(&f) {
                if eth.ethertype == EtherType::Ipv4 {
                    out.up(0, payload.to_vec());
                }
            }
        }
    }
    struct Ip;
    impl GraphLayer<Vec<u8>> for Ip {
        fn name(&self) -> &str {
            "ip"
        }
        fn process(&mut self, p: Vec<u8>, out: &mut Emitter<Vec<u8>>) {
            if let Ok((ip, payload)) = Ipv4Repr::parse(&p) {
                if ip.protocol == Protocol::Udp {
                    out.up(0, payload.to_vec());
                }
            }
        }
    }
    struct Udp;
    impl GraphLayer<Vec<u8>> for Udp {
        fn name(&self) -> &str {
            "udp"
        }
        fn process(&mut self, d: Vec<u8>, out: &mut Emitter<Vec<u8>>) {
            let a = Ipv4Addr::new(10, 0, 0, 1);
            let b = Ipv4Addr::new(10, 0, 0, 2);
            if let Ok((_, payload)) = UdpRepr::parse(&d, a, b) {
                out.deliver(payload.to_vec());
            }
        }
    }

    let frame = |i: u16| {
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        let udp = UdpRepr {
            src_port: i,
            dst_port: 53,
        }
        .packet(a, b, format!("payload {i}").as_bytes());
        let ip = Ipv4Repr {
            src: a,
            dst: b,
            protocol: Protocol::Udp,
            ttl: 64,
            ident: i,
            flags_frag: Ipv4Repr::DONT_FRAG,
            payload_len: udp.len(),
        }
        .packet(&udp);
        EthernetRepr {
            dst: EthernetAddr([2, 0, 0, 0, 0, 2]),
            src: EthernetAddr([2, 0, 0, 0, 0, 1]),
            ethertype: EtherType::Ipv4,
        }
        .frame(&ip)
    };

    let run = |schedule| {
        let mut g = LayerGraph::new(schedule);
        let udp = g.add_layer(Box::new(Udp), vec![]);
        let ip = g.add_layer(Box::new(Ip), vec![udp]);
        let eth = g.add_layer(Box::new(Eth), vec![ip]);
        g.set_entry(eth);
        for i in 0..10 {
            g.inject(frame(i));
        }
        let mut delivered: Vec<Vec<u8>> = g.run().into_iter().map(|(_, m)| m).collect();
        delivered.sort();
        (delivered, activation_runs(g.log()))
    };

    let (conv, conv_runs) = run(Schedule::Conventional);
    let (ldlp, ldlp_runs) = run(Schedule::Ldlp { entry_batch: 16 });
    assert_eq!(conv.len(), 10);
    assert_eq!(conv, ldlp, "identical deliveries under both schedules");
    assert_eq!(conv_runs, 30, "per-message interleaving");
    assert_eq!(ldlp_runs, 3, "one run per layer");
}

/// Fragmented UDP over a lossy link: drops of individual fragments kill
/// only their datagram; intact trains reassemble.
#[test]
fn fragmentation_under_loss_is_all_or_nothing() {
    use netstack::iface::FaultConfig;
    // Drop every 5th frame.
    let (mut ad, mut bd) = Channel::pair_with_faults(Some(FaultConfig {
        drop_every: 5,
        corrupt_every: 0,
    }));
    let mut a = host(1);
    let mut b = host(2);
    let (a_ip, a_mac, b_ip, b_mac) = (a.ip(), a.mac(), b.ip(), b.mac());
    a.add_arp_entry(b_ip, b_mac);
    b.add_arp_entry(a_ip, a_mac);
    b.udp_bind(7000).unwrap();

    let payload: Vec<u8> = (0..4000u32).map(|i| (i % 250) as u8).collect();
    let sent = 10;
    for _ in 0..sent {
        a.udp_send(&mut ad, 6000, b_ip, 7000, &payload);
        settle(&mut a, &mut ad, &mut b, &mut bd);
    }
    let mut received = 0;
    while let Some(dg) = b.udp_recv(7000) {
        assert_eq!(dg.payload, payload, "no partial datagrams delivered");
        received += 1;
    }
    // 3 fragments per datagram, 1-in-5 frame loss: some datagrams die.
    assert!(received < sent, "losses must kill whole datagrams");
    assert!(received > 0, "some datagrams survive");
}

/// Duplex (receive + ACK descent) through the event-loop simulator.
#[test]
fn duplex_simulation_end_to_end() {
    use cachesim::MachineConfig;
    use ldlp::synth::{paper_stack, stack_with};
    use ldlp::{BatchPolicy, Discipline, StackEngine};
    use simnet::traffic::{PoissonSource, TrafficSource};
    use simnet::{run_sim, SimConfig};

    let arrivals = PoissonSource::new(5000.0, 552, 3).take_until(0.3);
    let cfg = SimConfig {
        duration_s: 0.3,
        ..SimConfig::default()
    };
    let build = |d| {
        let (m, rx) = paper_stack(MachineConfig::synthetic_benchmark(), 5);
        let (_, tx) = stack_with(MachineConfig::synthetic_benchmark(), 55, 3, 4096, 256);
        StackEngine::new(m, rx, d).with_tx(tx, 58)
    };
    let mut conv = build(Discipline::Conventional);
    let rc = run_sim(&mut conv, &arrivals, &cfg);
    let mut ldlp = build(Discipline::Ldlp(BatchPolicy::DCacheFit));
    let rl = run_sim(&mut ldlp, &arrivals, &cfg);
    // The duplex working set (30 + 12 KB) sinks conventional at 5000/s.
    assert!(rc.drops > 0 || rc.mean_latency_us > 10_000.0);
    assert_eq!(rl.drops, 0);
    assert!(rl.mean_latency_us < 3_000.0, "LDLP {}", rl.mean_latency_us);
}

/// NFS-shaped RPC over UDP over the full stack: LOOKUP then GETATTR.
#[test]
fn rpc_attr_server_over_the_stack() {
    use signaling::rpc::{AttrServer, Procedure, RpcMessage, Status, ROOT_HANDLE};

    let (mut ad, mut bd) = Channel::pair();
    let mut client = host(1);
    let mut server_host = host(2);
    let mut server = AttrServer::new();
    let fh = server.add_file(ROOT_HANDLE, b"blackwell96.ps", 183_000);
    server_host.udp_bind(2049).unwrap();
    client.udp_bind(800).unwrap();

    let server_ip = server_host.ip();
    let call = RpcMessage::Call {
        xid: 77,
        proc: Procedure::Lookup,
        handle: ROOT_HANDLE,
        name: b"blackwell96.ps".to_vec(),
    };
    client.udp_send(&mut ad, 800, server_ip, 2049, &call.encode());
    settle(&mut client, &mut ad, &mut server_host, &mut bd);
    let dg = server_host.udp_recv(2049).expect("call arrived");
    let reply = server.handle(&dg.payload);
    server_host.udp_send(&mut bd, 2049, dg.src_addr, dg.src_port, &reply);
    settle(&mut client, &mut ad, &mut server_host, &mut bd);
    let dg = client.udp_recv(800).expect("reply arrived");
    match RpcMessage::decode(&dg.payload).unwrap() {
        RpcMessage::Reply {
            xid,
            status,
            handle,
            attrs,
        } => {
            assert_eq!(xid, 77);
            assert_eq!(status, Status::Success);
            assert_eq!(handle, Some(fh));
            assert_eq!(attrs.unwrap().size, 183_000);
        }
        other => panic!("unexpected {other:?}"),
    }
    // The whole exchange fits the paper's small-message regime.
    assert!(dg.payload.len() < 100);
}

/// MMPP regime-switching load through the simulator: LDLP absorbs the
/// burst regime that sinks the conventional schedule.
#[test]
fn mmpp_bursts_favour_ldlp() {
    use cachesim::MachineConfig;
    use ldlp::synth::paper_stack;
    use ldlp::{BatchPolicy, Discipline, StackEngine};
    use simnet::traffic::{MmppSource, TrafficSource};
    use simnet::{run_sim, SimConfig};

    // Quiet 1000/s, bursts of 9000/s, 100 ms regimes: mean 5000/s.
    let arrivals = MmppSource::two_state(1000.0, 9000.0, 0.1, 552, 8).take_until(1.0);
    let cfg = SimConfig::default();
    let run = |d| {
        let (m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), 9);
        let mut e = StackEngine::new(m, layers, d);
        run_sim(&mut e, &arrivals, &cfg)
    };
    let conv = run(Discipline::Conventional);
    let ldlp = run(Discipline::Ldlp(BatchPolicy::DCacheFit));
    assert!(conv.drops > 0, "bursts should overrun conventional");
    assert_eq!(ldlp.drops, 0, "LDLP batches through the bursts");
    assert!(ldlp.mean_batch > 1.5);
}

/// The real receive-and-ack trace survives serialization and analyzes
/// identically after a round trip.
#[test]
fn receive_ack_trace_serialization_round_trip() {
    use memtrace::workingset::working_set;
    let trace = netstack::footprint::build_receive_ack_trace();
    let text = memtrace::io::to_text(&trace);
    assert!(text.len() > 100_000, "full trace serialized");
    let back = memtrace::io::from_text(&text).expect("parse back");
    back.validate().unwrap();
    assert_eq!(working_set(&back, 32), working_set(&trace, 32));
    assert_eq!(
        memtrace::dilution::code_dilution(&back, 32),
        memtrace::dilution::code_dilution(&trace, 32)
    );
}

/// The instrumented functional graph and the synthetic engine agree on
/// the direction and rough magnitude of the LDLP effect.
#[test]
fn instrumented_graph_agrees_with_engine() {
    use cachesim::{Machine, MachineConfig};
    use ldlp::instrument::{CostedLayer, SharedMachine};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Pass {
        sink: bool,
    }
    impl GraphLayer<Vec<u8>> for Pass {
        fn name(&self) -> &str {
            "pass"
        }
        fn process(&mut self, m: Vec<u8>, out: &mut Emitter<Vec<u8>>) {
            if self.sink {
                out.deliver(m);
            } else {
                out.up(0, m);
            }
        }
    }

    let run = |schedule| -> u64 {
        let machine: SharedMachine = Rc::new(RefCell::new(Machine::new(
            MachineConfig::synthetic_benchmark(),
        )));
        let mut code = cachesim::AddressAllocator::new(0x10_0000, 32);
        let mut data = cachesim::AddressAllocator::new(0x800_0000, 32);
        let mut g = LayerGraph::new(schedule);
        let mut above = None;
        for i in (0..5).rev() {
            let layer = CostedLayer::new(
                Pass { sink: i == 4 },
                machine.clone(),
                code.alloc(6144),
                data.alloc(256),
            );
            let ports = above.map(|n| vec![n]).unwrap_or_default();
            above = Some(g.add_layer(Box::new(layer), ports));
        }
        g.set_entry(above.unwrap());
        for _ in 0..14 {
            g.inject(vec![0u8; 552]);
        }
        g.run();
        let misses = machine.borrow().stats().icache.misses;
        misses
    };
    let conv = run(Schedule::Conventional);
    let ldlp = run(Schedule::Ldlp { entry_batch: 14 });
    // 14 messages, 960-line stack: conventional ~= 14 reloads, LDLP ~= 1.
    assert!(conv > 10 * ldlp, "conv {conv} vs ldlp {ldlp}");
    assert!(ldlp >= 960, "at least one full cold load");
}
