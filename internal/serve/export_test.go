package serve

import "net/http"

// SetRouterTransport makes rt forward through t, so tests can give shard
// nodes fixed ring names that resolve to ephemeral listeners.
func SetRouterTransport(rt *Router, t http.RoundTripper) { rt.client.Transport = t }
