package adocnet

// Offer exposes offer to the external test package, which may import
// adocmux (adocmux imports adocnet, so package adocnet's own tests cannot).
var Offer = offer
