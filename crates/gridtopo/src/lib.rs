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
//!   correctness oracle) and the scalable default;
//! * [`hier`] — the two-level [`HierRouteTable`]: per-site tables over
//!   each site's local subgraph plus a gateway-level backbone table,
//!   composed lazily per lookup and *cost-equal* to the flat oracle on
//!   gateway-isolated grids.
//!
//! The gateway relay itself lives in `padico_core` (its `relay` and
//! `trunk` modules): its proxies and trunks resolve each hop from these
//! [`GridRoutes`], so endpoints sharing no network resolve to a
//! *relayed* link decision instead of failing.
//!
//! ## Example
//!
//! ```
//! use gridtopo::GridTopology;
//! use simnet::SimWorld;
//!
//! let mut world = SimWorld::new(7);
//! let grid = GridTopology::two_sites(&mut world, 4);
//! let (src, dst) = (grid.site(0).node(1), grid.site(1).node(2));
//! // The two workers share no network: the route crosses both gateways.
//! assert!(world.networks_between(src, dst).is_empty());
//! let route = grid.routes.route(src, dst).unwrap();
//! assert_eq!(
//!     route.relays().collect::<Vec<_>>(),
//!     vec![grid.site(0).gateway, grid.site(1).gateway]
//! );
//! let info = grid.routes.path_info(&world, src, dst).unwrap();
//! assert_eq!(info.hop_count, 3); // SAN, backbone, SAN
//! println!("{} one way over {} networks", info.total_latency, info.hop_count);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod churn;
pub mod hier;
pub mod route;

pub use builder::{GridTopology, Site, SiteSpec};
pub use churn::{
    check_transients, inject_link_churn, replay_churn, ChurnReplay, ChurnSchedule,
    TransientViolation,
};
pub use hier::{BackboneDelta, HierRouteTable, IsolationViolation, ReconvergeStats, SiteLayout};
pub use route::{link_cost, GridRoutes, Hop, PathInfo, Route, RouteTable};
