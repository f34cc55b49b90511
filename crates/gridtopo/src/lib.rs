//! # gridtopo — multi-hop routing and gateways for hierarchical grids
//!
//! The paper frames grid communication as sitting "at a crossroads between
//! parallel and distributed worlds": real grids are federations of
//! SAN-equipped clusters joined by WAN backbones, not flat fabrics. This
//! crate makes that shape first-class on top of [`simnet`]:
//!
//! * [`builder`] — [`GridTopology`] builders for star-of-sites,
//!   backbone-ring and cluster-of-clusters layouts, where each site is a
//!   SAN+LAN cluster and only its *gateway* node touches the backbone;
//! * [`route`] — multi-hop routes ([`Route`], [`PathInfo`]) behind the
//!   [`GridRoutes`] enum: the flat all-pairs [`RouteTable`] (Dijkstra
//!   over per-link costs with deterministic tie-breaking, kept as the
//!   correctness oracle) and the scalable default,
//! * [`hier`] — the two-level [`HierRouteTable`]: per-site tables over
//!   each site's local subgraph plus a gateway-level backbone table,
//!   composed lazily per lookup and *cost-equal* to the flat oracle on
//!   gateway-isolated grids;
//! * [`gateway`] — [`RelayFabric`], store-and-forward relay agents on
//!   gateway nodes with per-hop latency, bounded queues and drop /
//!   backpressure accounting.
//!
//! The `padico_core` selector consumes [`GridRoutes`] so that endpoints
//! sharing no network resolve to a *relayed* link decision instead of
//! failing.
//!
//! ## Example
//!
//! ```
//! use gridtopo::{GridTopology, RelayConfig, RelayFabric};
//! use simnet::SimWorld;
//!
//! let mut world = SimWorld::new(7);
//! let grid = GridTopology::two_sites(&mut world, 4);
//! let fabric = RelayFabric::new(grid.routes.clone(), RelayConfig::default());
//! for node in grid.all_nodes() {
//!     fabric.attach(&mut world, node);
//! }
//! let (src, dst) = (grid.site(0).node(1), grid.site(1).node(2));
//! fabric.bind(&mut world, dst, 40, |_world, msg| {
//!     println!("{} bytes relayed from {}", msg.payload.len(), msg.src);
//! });
//! fabric.send(&mut world, src, dst, 40, vec![0u8; 1024]).unwrap();
//! world.run();
//! assert_eq!(fabric.total_relayed(), 2); // both site gateways forwarded it
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod churn;
pub mod gateway;
pub mod hier;
pub mod route;

pub use builder::{GridTopology, Site, SiteSpec};
pub use churn::{
    check_transients, inject_link_churn, replay_churn, ChurnReplay, ChurnSchedule,
    TransientViolation,
};
pub use gateway::{
    BackpressureMode, GatewayStats, RelayConfig, RelayError, RelayFabric, RelayedMessage,
};
pub use hier::{BackboneDelta, HierRouteTable, IsolationViolation, ReconvergeStats, SiteLayout};
pub use route::{link_cost, GridRoutes, Hop, PathInfo, Route, RouteTable};
